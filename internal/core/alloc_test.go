package core

import (
	"context"
	"math/rand"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/pauli"
)

// plainOracle hides every optional capability of an oracle (RowOracle,
// SubViewer, DeviceSizer), forcing the historical mapped per-pair path.
type plainOracle struct{ o graph.Oracle }

func (p plainOracle) NumVertices() int      { return p.o.NumVertices() }
func (p plainOracle) HasEdge(u, v int) bool { return p.o.HasEdge(u, v) }

func TestSubViewPathMatchesMappedPath(t *testing.T) {
	// The compacted sub-view + batched row kernel must reproduce the mapped
	// per-pair oracle bit for bit: identical colorings, identical oracle
	// call counts, across several seeds and both operating points.
	rng := rand.New(rand.NewSource(5))
	set := pauli.RandomSet(14, 600, rng)
	for _, seed := range []int64{1, 7, 19} {
		for _, mk := range []func(int64) Options{Normal, Aggressive} {
			fast, err := Run(context.Background(), NewPauliOracle(set), mk(seed))
			if err != nil {
				t.Fatal(err)
			}
			slow, err := Run(context.Background(), plainOracle{NewPauliOracle(set)}, mk(seed))
			if err != nil {
				t.Fatal(err)
			}
			if len(fast.Iters) < 2 {
				t.Fatalf("seed %d: instance finished in %d iteration(s); too easy to exercise the sub-view", seed, len(fast.Iters))
			}
			if fast.NumColors != slow.NumColors || fast.TotalPairsTested != slow.TotalPairsTested {
				t.Fatalf("seed %d: sub-view path %d colors / %d pairs, mapped path %d / %d",
					seed, fast.NumColors, fast.TotalPairsTested, slow.NumColors, slow.TotalPairsTested)
			}
			for i := range fast.Colors {
				if fast.Colors[i] != slow.Colors[i] {
					t.Fatalf("seed %d: colorings differ at vertex %d", seed, i)
				}
			}
		}
	}
}

func TestArenaReuseKeepsColoringDeterministic(t *testing.T) {
	// A warm arena must never leak state between runs: the same (input,
	// seed) recolored on a reused arena — including after runs of other
	// sizes — matches a fresh-arena run exactly.
	oracles := []graph.Oracle{
		graph.RandomOracle{N: 500, P: 0.5, Seed: 9},
		graph.RandomOracle{N: 120, P: 0.8, Seed: 10},
		NewPauliOracle(pauli.RandomSet(12, 400, rand.New(rand.NewSource(6)))),
	}
	arena := NewArena()
	for round := 0; round < 2; round++ {
		for oi, o := range oracles {
			warm := Normal(3)
			warm.Workers = 2
			warm.Arena = arena
			got, err := Run(context.Background(), o, warm)
			if err != nil {
				t.Fatal(err)
			}
			fresh := Normal(3)
			fresh.Workers = 2
			want, err := Run(context.Background(), o, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumColors != want.NumColors {
				t.Fatalf("round %d oracle %d: warm arena %d colors, fresh %d",
					round, oi, got.NumColors, want.NumColors)
			}
			for i := range want.Colors {
				if got.Colors[i] != want.Colors[i] {
					t.Fatalf("round %d oracle %d: colorings differ at %d", round, oi, i)
				}
			}
		}
	}
}

// allocBudgetPerRun bounds a full warm recoloring: the Result/Iters the
// caller keeps, the rng, one builder boxing, and a handful of fixed-size
// per-run odds and ends. Everything iteration-scoped — lists, kernel
// scratch, COO, CSR, worklists, stamp sets — must come from the arena, so
// the budget is far below the tens of thousands of allocations the cold
// path performs and, critically, does not scale with iterations or size.
const allocBudgetPerRun = 64

func TestSteadyStateAllocationsUnderBudget(t *testing.T) {
	o := graph.RandomOracle{N: 800, P: 0.5, Seed: 21}
	arena := NewArena()
	opts := Normal(1)
	opts.Workers = 1
	opts.Arena = arena
	// Two warm-up runs grow the arena to steady state.
	for i := 0; i < 2; i++ {
		res, err := Run(context.Background(), o, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Iters) < 2 {
			t.Fatalf("instance finished in %d iteration(s); the budget must cover iterations ≥ 2", len(res.Iters))
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(context.Background(), o, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudgetPerRun {
		t.Fatalf("warm run allocates %.0f objects, budget %d", avg, allocBudgetPerRun)
	}
}

func TestSteadyStatePauliAllocationsUnderBudget(t *testing.T) {
	// The Pauli path adds the sub-view compaction; it must stay pooled too.
	set := pauli.RandomSet(16, 700, rand.New(rand.NewSource(8)))
	arena := NewArena()
	opts := Normal(2)
	opts.Workers = 1
	opts.Arena = arena
	for i := 0; i < 2; i++ {
		if _, err := Run(context.Background(), NewPauliOracle(set), opts); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(context.Background(), NewPauliOracle(set), opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudgetPerRun {
		t.Fatalf("warm Pauli run allocates %.0f objects, budget %d", avg, allocBudgetPerRun)
	}
}
