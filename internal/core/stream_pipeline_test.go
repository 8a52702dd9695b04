package core

import (
	"context"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

func TestStreamPipelinedCancellation(t *testing.T) {
	// Cancellation at every boundary of a speculative stream: a
	// pre-cancelled run does nothing; a cancel delivered at a group boundary
	// stops before the next group colors, with every lane's tracker charges
	// released (no leak, even on the error path).
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 99}
	opts := Normal(1)
	opts.ShardSize = 500
	opts.Speculate = 3

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, o, streamed(opts)); err != context.Canceled {
		t.Fatalf("pre-cancelled stream returned %v", err)
	}

	var tr memtrack.Tracker
	opts.Tracker = &tr
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	boundaries := 0
	opts.Checkpoint = func(st RunState) {
		boundaries++
		if boundaries == 2 {
			cancel2()
		}
	}
	if _, err := Run(ctx2, o, streamed(opts)); err != context.Canceled {
		t.Fatalf("boundary-cancelled stream returned %v", err)
	}
	if boundaries != 2 {
		t.Fatalf("run continued for %d boundaries after cancellation", boundaries)
	}
	if tr.Current() != 0 {
		t.Fatalf("%d tracked bytes leaked on the cancellation path", tr.Current())
	}
}

// sameAsSequential runs opts as a speculative stream and asserts the lane
// governor fell back to the sequential loop: nothing speculated, nothing
// overlapped, and the coloring is seq's bit for bit.
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
		t.Fatalf("vs the sequential stream: %v", err)
	}
	return res
}

func TestStreamPipelinedBudgetFallback(t *testing.T) {
	// When the budget cannot fit two worst-case shards the lane governor
	// runs the sequential loop instead of speculating.
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

func TestStreamPipelinedAutoShardBudget(t *testing.T) {
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

func TestStreamPipelinedInjectedBuilderFallsBack(t *testing.T) {
	// An injected Builder is bound to one arena: speculation must quietly
	// run the sequential loop instead of sharing the instance across lanes.
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

func TestNextShardConcurrentAttribution(t *testing.T) {
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
