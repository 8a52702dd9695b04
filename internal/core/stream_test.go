package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/pauli"
)

// streamBackendOptions mirrors backendOptions for the streamed entry point.
func streamBackendOptions(seed int64, shard int) map[string]Options {
	mk := func(f func(*Options)) Options {
		o := Normal(seed)
		o.ShardSize = shard
		f(&o)
		return o
	}
	return map[string]Options{
		"sequential": mk(func(o *Options) { o.Backend = "sequential" }),
		"parallel":   mk(func(o *Options) { o.Backend = "parallel"; o.Workers = 4 }),
		"gpu":        mk(func(o *Options) { o.Backend = "gpu"; o.Device = gpusim.NewDevice("t", 1<<30, 4) }),
	}
}

func TestStreamProperColoringEveryBackend(t *testing.T) {
	// The streaming equivalence contract, per registered backend: a
	// streamed run is a proper coloring of the same oracle, its color count
	// stays within a fixed factor of the one-shot run, and the tracked peak
	// respects the configured budget.
	o := graph.RandomOracle{N: 3000, P: 0.5, Seed: 41}
	oneShot, err := Run(context.Background(), o, Normal(7))
	if err != nil {
		t.Fatal(err)
	}

	for name, opts := range streamBackendOptions(7, 1000) {
		var tr memtrack.Tracker
		opts.Tracker = &tr
		opts.MemoryBudgetBytes = 8 << 20
		res, err := Run(context.Background(), o, streamed(opts))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := graph.VerifyOracle(o, res.Colors); err != nil {
			t.Fatalf("%s: streamed coloring not proper: %v", name, err)
		}
		if res.Shards != 3 {
			t.Errorf("%s: %d shards for 3000/1000", name, res.Shards)
		}
		if res.FixedPairsTested == 0 {
			t.Errorf("%s: fixed-color pass never ran", name)
		}
		if res.NumColors > 2*oneShot.NumColors {
			t.Errorf("%s: streamed %d colors vs one-shot %d (factor > 2)",
				name, res.NumColors, oneShot.NumColors)
		}
		if tr.Peak() > opts.MemoryBudgetBytes {
			t.Errorf("%s: tracked peak %d over budget %d", name, tr.Peak(), opts.MemoryBudgetBytes)
		}
		if res.BudgetExceeded {
			t.Errorf("%s: budget reported exceeded", name)
		}
	}

	// The multigpu backend joins through its own entry point.
	opts := Normal(7)
	opts.ShardSize = 1000
	res, err := Run(context.Background(), o, streamed(onDevices(opts, []*gpusim.Device{
		gpusim.NewDevice("m0", 1<<30, 2), gpusim.NewDevice("m1", 1<<30, 2),
	})))
	if err != nil {
		t.Fatalf("multigpu: %v", err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatalf("multigpu: streamed coloring not proper: %v", err)
	}
	if res.NumColors > 2*oneShot.NumColors {
		t.Errorf("multigpu: streamed %d colors vs one-shot %d", res.NumColors, oneShot.NumColors)
	}
}

func TestStreamPauliGrouping(t *testing.T) {
	// Pauli streaming exercises the zero-copy slab range views, the
	// compacted sub-views of later shard iterations, and the batched
	// cross-frontier commute kernel; the result must still be a proper
	// commutation coloring AND a clique partition of the anticommutation
	// graph.
	rng := rand.New(rand.NewSource(8))
	set := pauli.RandomSet(16, 1500, rng)
	opts := Normal(5)
	opts.ShardSize = 400
	res, err := Run(context.Background(), NewPauliOracle(set), streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(NewPauliOracle(set), res.Colors); err != nil {
		t.Fatalf("streamed Pauli coloring not proper: %v", err)
	}
	if err := graph.VerifyCliquePartition(AnticommuteOracle{Set: set}, res.Colors); err != nil {
		t.Fatalf("streamed Pauli coloring not a clique partition: %v", err)
	}
	if res.Shards != 4 {
		t.Errorf("%d shards for 1500/400", res.Shards)
	}
}

func TestStreamCheckpointResumeDeterminism(t *testing.T) {
	// A run resumed from any shard-boundary snapshot must finish with the
	// exact coloring of the uninterrupted run (fixed ShardSize: unit
	// randomness is derived from the shard start, not run history). The
	// snapshot must survive a JSON round trip, since that is how the
	// service would persist it.
	o := graph.RandomOracle{N: 2200, P: 0.5, Seed: 13}
	opts := Normal(3)
	opts.ShardSize = 600

	var states []RunState
	full := opts
	full.Checkpoint = func(st RunState) {
		if st.Resumable() {
			states = append(states, st)
		}
	}
	want, err := Run(context.Background(), o, streamed(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != want.Shards {
		t.Fatalf("%d resumable checkpoints for %d shards", len(states), want.Shards)
	}

	for i := range states[:len(states)-1] {
		blob, err := json.Marshal(&states[i])
		if err != nil {
			t.Fatal(err)
		}
		var st RunState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), o, resumed(opts, &st))
		if err != nil {
			t.Fatalf("resume from shard %d: %v", i+1, err)
		}
		if got.NumColors != want.NumColors {
			t.Fatalf("resume from shard %d: %d colors, want %d", i+1, got.NumColors, want.NumColors)
		}
		for v := range want.Colors {
			if got.Colors[v] != want.Colors[v] {
				t.Fatalf("resume from shard %d: vertex %d differs", i+1, v)
			}
		}
		if got.Shards != want.Shards {
			t.Fatalf("resume from shard %d reports %d total shards, want %d", i+1, got.Shards, want.Shards)
		}
	}

	// Mid-unit or mismatched snapshots are rejected.
	bad := states[0]
	bad.Active = []int32{1}
	if _, err := Run(context.Background(), o, resumed(opts, &bad)); err == nil {
		t.Error("mid-unit snapshot accepted")
	}
	shrunk := states[0]
	if _, err := Run(context.Background(), graph.RandomOracle{N: 10, P: 0.5, Seed: 1}, resumed(opts, &shrunk)); err == nil {
		t.Error("snapshot for a different oracle size accepted")
	}
}

func TestStreamFallbackCheckpointsResumable(t *testing.T) {
	// A shard that hits the iteration cap finishes through the singleton
	// fallback; its boundary snapshot must still be resumable (Active
	// empty, colors complete — a fallback shard is a continuable boundary
	// like any other), and resuming from it reproduces the full run.
	o := graph.RandomOracle{N: 1200, P: 0.5, Seed: 7}
	opts := Normal(5)
	opts.ShardSize = 400
	opts.MaxIterations = 1 // every shard ends in the fallback

	var states []RunState
	full := opts
	full.Checkpoint = func(st RunState) { states = append(states, st) }
	want, err := Run(context.Background(), o, streamed(full))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Fallback {
		t.Fatal("iteration cap never triggered the fallback")
	}
	if err := graph.VerifyOracle(o, want.Colors); err != nil {
		t.Fatalf("fallback coloring not proper: %v", err)
	}
	for i, st := range states {
		if !st.Resumable() {
			t.Fatalf("fallback-shard snapshot %d not resumable (%d stale active ids)", i, len(st.Active))
		}
	}

	got, err := Run(context.Background(), o, resumed(opts, &states[0]))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Colors {
		if got.Colors[v] != want.Colors[v] {
			t.Fatalf("resume after fallback shard differs at vertex %d", v)
		}
	}

	// A snapshot whose ceil field was zeroed in transit (older writer,
	// truncation, hand edit) must not let a later fallback mint colors
	// colliding with the frozen frontier: the ceiling is recomputed from
	// the colors themselves, so the resumed run is bit-identical anyway.
	corrupt := states[0]
	corrupt.Ceil = 0
	got2, err := Run(context.Background(), o, resumed(opts, &corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, got2.Colors); err != nil {
		t.Fatalf("zeroed-ceil resume produced an improper coloring: %v", err)
	}
	for v := range want.Colors {
		if got2.Colors[v] != want.Colors[v] {
			t.Fatalf("zeroed-ceil resume differs at vertex %d", v)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 99}
	opts := Normal(1)
	opts.ShardSize = 500

	// Pre-cancelled: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, o, streamed(opts)); err != context.Canceled {
		t.Fatalf("pre-cancelled stream returned %v", err)
	}

	// Cancel from a shard boundary: the run stops before coloring the next
	// shard (the checkpoint callback is the boundary observer).
	ctx2, cancel2 := context.WithCancel(context.Background())
	shards := 0
	opts.Checkpoint = func(st RunState) {
		shards++
		if shards == 2 {
			cancel2()
		}
	}
	if _, err := Run(ctx2, o, streamed(opts)); err != context.Canceled {
		t.Fatalf("boundary-cancelled stream returned %v", err)
	}
	if shards != 2 {
		t.Fatalf("run continued for %d shards after cancellation", shards)
	}

	// One-shot runs honor ctx at iteration boundaries too.
	iters := 0
	ctx3, cancel3 := context.WithCancel(context.Background())
	one := Normal(1)
	one.Progress = func(IterStats) {
		iters++
		cancel3()
	}
	if _, err := Run(ctx3, o, one); err != context.Canceled {
		t.Fatalf("iteration-cancelled run returned %v", err)
	}
	if iters != 1 {
		t.Fatalf("run continued for %d iterations after cancellation", iters)
	}
}

// prefixOracle restricts an oracle to its first k vertices — the "old"
// input before an append arrives.
type prefixOracle struct {
	o graph.Oracle
	k int
}

func (p prefixOracle) NumVertices() int      { return p.k }
func (p prefixOracle) HasEdge(u, v int) bool { return p.o.HasEdge(u, v) }

func TestExtendAppendsWithoutRecoloring(t *testing.T) {
	full := graph.RandomOracle{N: 2000, P: 0.5, Seed: 23}
	old := prefixOracle{o: full, k: 1500}

	prev, err := Run(context.Background(), old, Normal(9))
	if err != nil {
		t.Fatal(err)
	}
	opts := Normal(9)
	opts.ShardSize = 200
	res, err := Run(context.Background(), full, frozen(opts, prev.Colors))
	if err != nil {
		t.Fatal(err)
	}
	// The frozen prefix is bit-identical; the whole coloring is proper.
	for v := 0; v < old.k; v++ {
		if res.Colors[v] != prev.Colors[v] {
			t.Fatalf("Extend recolored frozen vertex %d", v)
		}
	}
	if err := graph.VerifyOracle(full, res.Colors); err != nil {
		t.Fatalf("extended coloring not proper: %v", err)
	}
	if res.Shards != 3 {
		t.Errorf("%d shards for 500 appended vertices at shard 200", res.Shards)
	}

	// Input validation: an incomplete prefix is rejected.
	broken := append(graph.Coloring(nil), prev.Colors...)
	broken[3] = graph.Uncolored
	if _, err := Run(context.Background(), full, frozen(opts, broken)); err == nil {
		t.Error("incomplete fixed prefix accepted")
	}
	if _, err := Run(context.Background(), old, frozen(opts, res.Colors)); err == nil {
		t.Error("prefix longer than the oracle accepted")
	}
}

func TestExtendPauliAppend(t *testing.T) {
	// The service's append path: color a string set, append new strings to
	// the set, Extend against the frozen grouping.
	rng := rand.New(rand.NewSource(31))
	whole := pauli.RandomSet(14, 1200, rng)
	old := whole.View(0, 900)

	prev, err := Run(context.Background(), NewPauliOracle(old), Normal(2))
	if err != nil {
		t.Fatal(err)
	}
	opts := Normal(2)
	res, err := Run(context.Background(), NewPauliOracle(whole), frozen(opts, prev.Colors))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(NewPauliOracle(whole), res.Colors); err != nil {
		t.Fatalf("extended Pauli coloring not proper: %v", err)
	}
	if err := graph.VerifyCliquePartition(AnticommuteOracle{Set: whole}, res.Colors); err != nil {
		t.Fatalf("extended Pauli coloring not a clique partition: %v", err)
	}
}

func TestStreamBudgetDerivesShardsGracefully(t *testing.T) {
	// A budget far below the one-shot footprint must still complete, under
	// budget, by picking small shards; an absurdly tiny budget degrades to
	// the minimum shard and reports the violation instead of failing.
	o := graph.RandomOracle{N: 5000, P: 0.5, Seed: 3}
	var oneTr memtrack.Tracker
	one := Normal(4)
	one.Tracker = &oneTr
	if _, err := Run(context.Background(), o, one); err != nil {
		t.Fatal(err)
	}

	var tr memtrack.Tracker
	opts := Normal(4)
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = oneTr.Peak() / 3
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Shards < 2 {
		t.Fatalf("budget %d below one-shot peak %d produced %d shard(s)",
			opts.MemoryBudgetBytes, oneTr.Peak(), res.Shards)
	}
	if tr.Peak() > opts.MemoryBudgetBytes {
		t.Fatalf("tracked peak %d over budget %d", tr.Peak(), opts.MemoryBudgetBytes)
	}
	if res.BudgetExceeded {
		t.Fatal("budget reported exceeded")
	}

	// Tiny budget: completes anyway, flags the violation.
	tiny := Normal(4)
	tiny.MemoryBudgetBytes = 1 << 10
	tres, err := Run(context.Background(), o, streamed(tiny))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, tres.Colors); err != nil {
		t.Fatal(err)
	}
	if !tres.BudgetExceeded {
		t.Fatal("1 KiB budget not reported exceeded")
	}
}

func TestReusedTrackerDoesNotPoisonBudgetVerdict(t *testing.T) {
	// A tracker that lived through an earlier, bigger run must not carry
	// its lifetime peak into a later budgeted run's verdict or shard
	// governor: both entry points rebaseline the peak at run start.
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 17}
	var tr memtrack.Tracker
	big := Normal(2)
	big.Tracker = &tr
	if _, err := Run(context.Background(), o, big); err != nil {
		t.Fatal(err)
	}
	stalePeak := tr.Peak()

	opts := Normal(2)
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = stalePeak / 3
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetExceeded {
		t.Fatalf("stale peak %d poisoned the verdict (budget %d, run peak %d)",
			stalePeak, opts.MemoryBudgetBytes, res.HostPeakBytes)
	}
	if tr.Peak() > opts.MemoryBudgetBytes {
		t.Fatalf("run-relative peak %d over budget %d", tr.Peak(), opts.MemoryBudgetBytes)
	}

	// And a one-shot rerun with no budget on the same tracker stays
	// unjudged even though the tracker once crossed 64 bytes of budget.
	clean := Normal(2)
	clean.Tracker = &tr
	res2, err := Run(context.Background(), o, clean)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BudgetExceeded {
		t.Fatal("disarmed rerun reported a budget violation")
	}
}
