package core

import (
	"context"
	"errors"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

func TestStreamSpeculateCancellation(t *testing.T) {
	// Cancellation anywhere in a speculative stream: a pre-cancelled run
	// does nothing and a cancel at a group boundary stops before the next
	// group colors, both returning ctx's error itself; a cancel delivered at
	// the k-th Progress call — for every k, so inside lane units, repair
	// units and collision scans — stops the run with ctx's error, wrapped
	// when a build notices it. Every tracker
	// charge is released, even on the error path. The last Progress call
	// comes from the final repair unit's last iteration, after the run's
	// last stage boundary: nothing is left to stop, and the run completes.
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 9}
	opts := Normal(4)
	opts.ShardSize = 300
	opts.Speculate = 3

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, o, streamed(opts)); err != context.Canceled {
		t.Fatalf("pre-cancelled stream returned %v", err)
	}

	var btr memtrack.Tracker
	bopts := opts
	bopts.Tracker = &btr
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	boundaries := 0
	bopts.Checkpoint = func(RunState) {
		if boundaries++; boundaries == 1 {
			bcancel()
		}
	}
	if _, err := Run(bctx, o, streamed(bopts)); err != context.Canceled {
		t.Fatalf("boundary-cancelled stream returned %v", err)
	}
	if boundaries != 1 || btr.Current() != 0 {
		t.Fatalf("boundary-cancelled stream went on for %d boundaries and left %d tracked bytes",
			boundaries, btr.Current())
	}

	calls := 0
	opts.Progress = func(IterStats) { calls++ }
	full, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if full.SpeculativeConflicts == 0 {
		t.Fatal("no speculative conflicts: the sweep would never cancel inside a repair")
	}
	for k := 1; k <= calls; k++ {
		var tr memtrack.Tracker
		ctx, cancel := context.WithCancel(context.Background())
		run := opts
		run.Tracker = &tr
		seen := 0
		run.Progress = func(IterStats) {
			if seen++; seen == k {
				cancel()
			}
		}
		res, err := Run(ctx, o, streamed(run))
		cancel()
		if k == calls {
			if err != nil {
				t.Fatalf("cancelled after the last stage boundary: returned %v", err)
			}
			if err := sameColoring(res.Colors, full.Colors); err != nil {
				t.Fatalf("cancelled after the last stage boundary: %v", err)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at Progress call %d of %d: returned %v", k, calls, err)
		}
		if tr.Current() != 0 {
			t.Fatalf("cancelled at Progress call %d of %d: %d tracked bytes leaked", k, calls, tr.Current())
		}
	}
}

// sameAsSequential runs opts as a speculative stream and asserts the lane
// governor held it to one lane: nothing speculated, nothing overlapped, and
// the coloring is the plain stream seq's bit for bit.
func sameAsSequential(t *testing.T, o graph.Oracle, opts Options, seq *Result) *Result {
	t.Helper()
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeConflicts != 0 || res.OverlapRatio != 0 {
		t.Errorf("%d speculative conflicts, overlap ratio %v: the run speculated",
			res.SpeculativeConflicts, res.OverlapRatio)
	}
	if err := sameColoring(res.Colors, seq.Colors); err != nil {
		t.Fatalf("vs the plain stream: %v", err)
	}
	return res
}

func TestStreamSpeculateBudgetFallback(t *testing.T) {
	// When the budget cannot fit two worst-case shards the lane governor
	// runs one-shard groups instead of speculating.
	o := graph.RandomOracle{N: 3000, P: 0.5, Seed: 41}
	opts := Normal(7)
	opts.ShardSize = 1000

	seq, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}

	spec := opts
	spec.Speculate = 2
	// Room for ~1.5 worst-case shards: one lane fits, two do not.
	spec.MemoryBudgetBytes = shardFootprint(&spec, o, 3000, 1000) * 3 / 2
	var tr memtrack.Tracker
	spec.Tracker = &tr
	res := sameAsSequential(t, o, spec, seq)
	if tr.Peak() > spec.MemoryBudgetBytes && !res.BudgetExceeded {
		t.Error("budget crossing went unreported")
	}
}

func TestStreamSpeculateAutoShardBudget(t *testing.T) {
	// Budget-derived shard sizing under speculation: the run must stay
	// proper and any budget crossing must be reported, never silent — the
	// combined footprint of the lanes is what the budget governs.
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 5}
	opts := Normal(3)
	opts.Speculate = 3
	var tr memtrack.Tracker
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = 8 << 20
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatalf("coloring not proper: %v", err)
	}
	if tr.Peak() > opts.MemoryBudgetBytes && !res.BudgetExceeded {
		t.Errorf("peak %d over budget %d but not reported", tr.Peak(), opts.MemoryBudgetBytes)
	}
	if tr.Current() != 0 {
		t.Errorf("%d tracked bytes leaked", tr.Current())
	}
}

func TestStreamSpeculateRepairFollowsTheLane(t *testing.T) {
	// A budgeted speculative stream well past the frontier scan's
	// 4096-vertex chunk floor. Repair units scan the frozen prefix in
	// chunks, so their tracked bytes follow the lane, not the prefix, and
	// the budget that sized the lanes also holds the repairs. Short lists
	// and a wide palette shrink the worst-case shard footprint until two
	// lanes fit 160 KiB of headroom, while one index over the whole frozen
	// prefix (4 bytes a vertex) would need up to 160,000 bytes: a repair
	// that held one crossed the budget and halved the next shards to the
	// minimum (peak 338,412 against 323,840 bytes).
	const n = 40000
	o := graph.RandomOracle{N: n, P: 0.05, Seed: 3}
	opts := Normal(1)
	opts.Backend = "sequential"
	opts.Alpha, opts.PaletteFrac = 0.4, 0.5
	opts.Speculate = 2
	opts.MemoryBudgetBytes = 4*n + 160<<10 // the color array plus the headroom
	var tr memtrack.Tracker
	opts.Tracker = &tr
	var sizes []int
	opts.Checkpoint = func(st RunState) { sizes = append(sizes, st.End-st.Start) }
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeConflicts == 0 {
		t.Fatal("no speculative conflicts: no repair unit ran")
	}
	if res.BudgetExceeded || tr.Peak() > opts.MemoryBudgetBytes {
		t.Fatalf("peak %d over the %d-byte budget (reported %v); group sizes %v",
			tr.Peak(), opts.MemoryBudgetBytes, res.BudgetExceeded, sizes)
	}
	if tr.Current() != 0 {
		t.Errorf("%d tracked bytes leaked", tr.Current())
	}
}

func TestStreamSpeculateInjectedBuilderFallsBack(t *testing.T) {
	// An injected Builder is bound to one arena: speculation must quietly
	// run one-shard groups instead of sharing the instance across lanes.
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 3}
	opts := Normal(7)
	opts.ShardSize = 500
	seq, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := opts.validate(); err != nil {
		t.Fatal(err)
	}
	injected := opts // validated copy: Builder now set, builderInjected recorded
	injected.Speculate = 2
	sameAsSequential(t, o, injected, seq)
}

func TestNextShardLaneAttribution(t *testing.T) {
	// With lanes in flight the run tracker's peak includes the neighbors'
	// units, so sizing from it would systematically shrink shards.
	// nextShard takes the unit's own bytes (its lane child's peak) for the
	// retarget and uses the combined root peak only for the
	// halve-on-crossing verdict.
	var root memtrack.Tracker
	a, b := root.Child(), root.Child()
	a.Alloc(2 << 20) // the finished unit's own footprint
	b.Alloc(2 << 20) // the neighbor still in flight
	budget := int64(16 << 20)

	got := nextShard(1000, 1000, a.Peak(), budget, 0, root.Peak(), 0, true, 2)
	naive := nextShard(1000, 1000, root.Peak(), budget, 0, root.Peak(), 0, true, 2)
	if got <= naive {
		t.Fatalf("child attribution target %d not above combined-peak target %d", got, naive)
	}
	// Exact: perVertex = ceil(2MiB/1000), target = 70%% of budget headroom
	// split across 2 lanes.
	perVertex := (a.Peak() + 999) / 1000
	want := int(budget * 7 / 10 / 2 / perVertex)
	if got != want {
		t.Fatalf("retarget = %d, want %d", got, want)
	}

	// A fresh combined crossing halves regardless of the unit's own bytes.
	if h := nextShard(1000, 1000, a.Peak(), 3<<20, 0, 4<<20, 0, true, 2); h != 500 {
		t.Fatalf("fresh crossing: shard %d, want 500", h)
	}
	// A stale crossing (root peak unchanged since before the unit) must
	// not keep halving shards that behaved: the retarget path runs.
	if nh := nextShard(1000, 1000, 512<<10, 3<<20, 0, 4<<20, 4<<20, true, 2); nh <= 500 {
		t.Fatalf("stale crossing still halved: shard %d", nh)
	}
	// Halving floors at the minimum shard.
	if f := nextShard(300, 300, 10<<20, 1<<20, 0, 2<<20, 0, true, 2); f != minShard {
		t.Fatalf("halve floor = %d, want %d", f, minShard)
	}
	// No budget or no evidence: the proven size stands.
	if k := nextShard(1000, 1000, 0, budget, 0, 1<<20, 0, true, 2); k != 1000 {
		t.Fatalf("no-evidence retarget moved the shard to %d", k)
	}
	if k := nextShard(1000, 1000, 1<<20, 0, 0, 1<<20, 0, true, 2); k != 1000 {
		t.Fatalf("budget-free retarget moved the shard to %d", k)
	}
}
