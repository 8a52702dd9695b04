package core

import (
	"context"
	"testing"

	"picasso/internal/backend"
	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// backendOptions returns one Options per registered execution path, all with
// the same seed: the selector-driven table for the equivalence tests.
func backendOptions(seed int64) map[string]Options {
	mk := func(f func(*Options)) Options {
		o := Normal(seed)
		f(&o)
		return o
	}
	return map[string]Options{
		"auto":        mk(func(o *Options) {}),
		"sequential":  mk(func(o *Options) { o.Backend = "sequential" }),
		"parallel":    mk(func(o *Options) { o.Backend = "parallel"; o.Workers = 4 }),
		"gpu":         mk(func(o *Options) { o.Backend = "gpu"; o.Device = gpusim.NewDevice("t", 1<<30, 4) }),
		"gpu-implied": mk(func(o *Options) { o.Device = gpusim.NewDevice("t", 1<<30, 2) }),
	}
}

func TestColorDeterministicAcrossBackends(t *testing.T) {
	// The paper's §VII-B1 guarantee, now stated per backend selector: the
	// conflict graph is deterministic, all randomness is downstream of it,
	// so every backend yields bit-identical colorings — and identical
	// oracle-call counts, since all share the bucket kernel.
	o := graph.RandomOracle{N: 350, P: 0.5, Seed: 21}
	for _, seed := range []int64{1, 7} {
		var refName string
		var ref *Result
		for name, opts := range backendOptions(seed) {
			res, err := Run(context.Background(), o, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if ref == nil {
				refName, ref = name, res
				continue
			}
			if res.NumColors != ref.NumColors {
				t.Fatalf("seed %d: %s used %d colors, %s used %d",
					seed, name, res.NumColors, refName, ref.NumColors)
			}
			for i := range ref.Colors {
				if res.Colors[i] != ref.Colors[i] {
					t.Fatalf("seed %d: %s and %s differ at vertex %d", seed, name, refName, i)
				}
			}
			if res.TotalPairsTested != ref.TotalPairsTested {
				t.Errorf("seed %d: %s made %d oracle calls, %s made %d",
					seed, name, res.TotalPairsTested, refName, ref.TotalPairsTested)
			}
		}
		// Multi-device joins through its own entry point.
		multi, err := Run(context.Background(), o, onDevices(Normal(seed), []*gpusim.Device{
			gpusim.NewDevice("m0", 1<<30, 2), gpusim.NewDevice("m1", 1<<30, 2),
		}))
		if err != nil {
			t.Fatalf("seed %d multigpu: %v", seed, err)
		}
		for i := range ref.Colors {
			if multi.Colors[i] != ref.Colors[i] {
				t.Fatalf("seed %d: multigpu differs from %s at vertex %d", seed, refName, i)
			}
		}
	}
}

func TestBackendSelectorValidation(t *testing.T) {
	o := graph.RandomOracle{N: 30, P: 0.5, Seed: 1}
	bad := Normal(1)
	bad.Backend = "warp-speculative"
	if _, err := Run(context.Background(), o, bad); err == nil {
		t.Error("unknown backend name accepted")
	}
	gpuless := Normal(1)
	gpuless.Backend = "gpu"
	if _, err := Run(context.Background(), o, gpuless); err == nil {
		t.Error("gpu backend without a device accepted")
	}
}

func TestExplicitBuilderOverridesSelector(t *testing.T) {
	// Options.Builder is the injection seam: a wrapping builder must see
	// every iteration's build.
	o := graph.RandomOracle{N: 200, P: 0.5, Seed: 33}
	inner, err := backend.New("sequential", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBuilder{inner: inner}
	opts := Normal(3)
	opts.Backend = "gpu" // would fail validation; Builder must win
	opts.Builder = cb
	res, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cb.builds != len(res.Iters) {
		t.Errorf("builder saw %d builds for %d iterations", cb.builds, len(res.Iters))
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatal(err)
	}
}

type countingBuilder struct {
	inner  backend.ConflictBuilder
	builds int
}

func (c *countingBuilder) Name() string { return "counting" }

func (c *countingBuilder) Build(ctx context.Context, o backend.EdgeOracle, lists backend.Lists, tr *memtrack.Tracker) (*backend.ConflictGraph, backend.Stats, error) {
	c.builds++
	return c.inner.Build(ctx, o, lists, tr)
}

func TestPairsTestedReported(t *testing.T) {
	// n must be large enough that the collision rate L²/P is well under 1
	// (at n = 2000: L = 7, P = 250, L²/P ≈ 20%); tiny instances degenerate
	// toward full-palette lists where every pair shares a color.
	o := graph.RandomOracle{N: 2000, P: 0.5, Seed: 51}
	res, err := Run(context.Background(), o, Normal(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairsTested <= 0 {
		t.Fatal("no oracle calls recorded")
	}
	var allPairs, sum int64
	for _, it := range res.Iters {
		m := int64(it.ActiveVertices)
		allPairs += m * (m - 1) / 2
		sum += it.PairsTested
	}
	if sum != res.TotalPairsTested {
		t.Errorf("iteration oracle calls sum to %d, total says %d", sum, res.TotalPairsTested)
	}
	if res.TotalPairsTested*2 > allPairs {
		t.Errorf("kernel consulted %d of %d all-pairs — bucketing not effective",
			res.TotalPairsTested, allPairs)
	}
}
