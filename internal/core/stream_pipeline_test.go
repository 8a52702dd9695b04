package core

import (
	"context"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

func TestStreamPipelinedBitIdenticalEveryBackend(t *testing.T) {
	// The pipelined equivalence contract, per registered backend: with a
	// fixed ShardSize the pipelined stream is bit-identical to the
	// sequential stream — the overlapped prebuild is frontier-independent
	// and the delta fixed pass reconstructs the sequential mask exactly —
	// while actually overlapping shards and staying inside the budget.
	o := graph.RandomOracle{N: 3000, P: 0.5, Seed: 41}
	for name, opts := range streamBackendOptions(7, 1000) {
		seq, err := Run(context.Background(), o, streamed(opts))
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}

		pipe := opts
		pipe.PipelineShards = true
		var tr memtrack.Tracker
		pipe.Tracker = &tr
		pipe.MemoryBudgetBytes = 64 << 20
		res, err := Run(context.Background(), o, streamed(pipe))
		if err != nil {
			t.Fatalf("%s: pipelined: %v", name, err)
		}
		if err := graph.VerifyOracle(o, res.Colors); err != nil {
			t.Fatalf("%s: pipelined coloring not proper: %v", name, err)
		}
		for v := range seq.Colors {
			if res.Colors[v] != seq.Colors[v] {
				t.Fatalf("%s: pipelined differs from sequential stream at vertex %d: %d vs %d",
					name, v, res.Colors[v], seq.Colors[v])
			}
		}
		if res.Shards != 3 {
			t.Errorf("%s: %d shards for 3000/1000", name, res.Shards)
		}
		// Shards 2 and 3 prebuild while their predecessor colors; the first
		// has no predecessor and never counts.
		if res.PipelinedShards != 2 {
			t.Errorf("%s: PipelinedShards = %d, want 2", name, res.PipelinedShards)
		}
		if res.OverlapRatio < 0 || res.OverlapRatio > 1 {
			t.Errorf("%s: overlap ratio %v outside [0, 1]", name, res.OverlapRatio)
		}
		if tr.Peak() > pipe.MemoryBudgetBytes {
			t.Errorf("%s: tracked peak %d over budget %d", name, tr.Peak(), pipe.MemoryBudgetBytes)
		}
		if res.BudgetExceeded {
			t.Errorf("%s: budget reported exceeded", name)
		}
		if tr.Current() != 0 {
			t.Errorf("%s: %d tracked bytes leaked across the pipelined run", name, tr.Current())
		}
	}

	// The multigpu backend joins through its own entry point.
	mk := func() []*gpusim.Device {
		return []*gpusim.Device{
			gpusim.NewDevice("m0", 1<<30, 2), gpusim.NewDevice("m1", 1<<30, 2),
		}
	}
	opts := Normal(7)
	opts.ShardSize = 1000
	seq, err := Run(context.Background(), o, streamed(onDevices(opts, mk())))
	if err != nil {
		t.Fatalf("multigpu sequential: %v", err)
	}
	opts.PipelineShards = true
	res, err := Run(context.Background(), o, streamed(onDevices(opts, mk())))
	if err != nil {
		t.Fatalf("multigpu pipelined: %v", err)
	}
	for v := range seq.Colors {
		if res.Colors[v] != seq.Colors[v] {
			t.Fatalf("multigpu: pipelined differs from sequential stream at vertex %d", v)
		}
	}
	if res.PipelinedShards == 0 {
		t.Error("multigpu: pipelining never engaged")
	}
}

func TestStreamSpeculativeProperDeterministicEveryBackend(t *testing.T) {
	// Speculation is not bit-identical to the sequential stream (later
	// lanes cannot see earlier lanes while coloring) but must be proper,
	// deterministic per seed, and inside the budget. ShardSize 600 over
	// n=3000 with S=3 makes two groups (3 lanes, then 2), exercising the
	// partial-group path; the repair stats must be coherent.
	o := graph.RandomOracle{N: 3000, P: 0.5, Seed: 41}
	for name, opts := range streamBackendOptions(7, 600) {
		spec := opts
		spec.Speculate = 3
		var tr memtrack.Tracker
		spec.Tracker = &tr
		spec.MemoryBudgetBytes = 64 << 20
		res, err := Run(context.Background(), o, streamed(spec))
		if err != nil {
			t.Fatalf("%s: speculative: %v", name, err)
		}
		if err := graph.VerifyOracle(o, res.Colors); err != nil {
			t.Fatalf("%s: speculative coloring not proper: %v", name, err)
		}
		if res.Shards != 5 {
			t.Errorf("%s: %d shards for 3000/600", name, res.Shards)
		}
		if res.RepairRecolors > res.SpeculativeConflicts {
			t.Errorf("%s: %d repair recolors out of %d conflicts",
				name, res.RepairRecolors, res.SpeculativeConflicts)
		}
		if tr.Peak() > spec.MemoryBudgetBytes {
			t.Errorf("%s: tracked peak %d over budget %d", name, tr.Peak(), spec.MemoryBudgetBytes)
		}
		if tr.Current() != 0 {
			t.Errorf("%s: %d tracked bytes leaked across the speculative run", name, tr.Current())
		}

		again, err := Run(context.Background(), o, streamed(spec))
		if err != nil {
			t.Fatalf("%s: second speculative run: %v", name, err)
		}
		for v := range res.Colors {
			if again.Colors[v] != res.Colors[v] {
				t.Fatalf("%s: speculative run not deterministic at vertex %d", name, v)
			}
		}
		if again.SpeculativeConflicts != res.SpeculativeConflicts {
			t.Errorf("%s: conflict count not deterministic: %d vs %d",
				name, again.SpeculativeConflicts, res.SpeculativeConflicts)
		}
	}

	// A group with a single-shard tail (5 shards, S=2: groups 2+2+1) runs
	// the tail as a plain sequential unit and must stay proper.
	tail := Normal(7)
	tail.ShardSize = 600
	tail.Speculate = 2
	res, err := Run(context.Background(), o, streamed(tail))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatalf("tail-group coloring not proper: %v", err)
	}
}

func TestStreamPipelinedCheckpointResume(t *testing.T) {
	// Every pipelined shard boundary checkpoints exactly like the
	// sequential loop's, even with the successor's prebuild still in
	// flight, and a resume — pipelined or sequential — lands on the same
	// bit-identical coloring.
	o := graph.RandomOracle{N: 2200, P: 0.5, Seed: 13}
	opts := Normal(3)
	opts.ShardSize = 600
	opts.PipelineShards = true

	var states []RunState
	full := opts
	full.Checkpoint = func(st RunState) {
		if !st.Resumable() {
			t.Fatalf("pipelined checkpoint at shard %d not resumable", st.Shards)
		}
		states = append(states, st)
	}
	want, err := Run(context.Background(), o, streamed(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != want.Shards {
		t.Fatalf("%d checkpoints for %d shards", len(states), want.Shards)
	}

	seqOpts := opts
	seqOpts.PipelineShards = false
	for i := range states[:len(states)-1] {
		for mode, ro := range map[string]Options{"pipelined": opts, "sequential": seqOpts} {
			got, err := Run(context.Background(), o, resumed(ro, &states[i]))
			if err != nil {
				t.Fatalf("%s resume from shard %d: %v", mode, i+1, err)
			}
			for v := range want.Colors {
				if got.Colors[v] != want.Colors[v] {
					t.Fatalf("%s resume from shard %d differs at vertex %d", mode, i+1, v)
				}
			}
		}
	}
}

func TestStreamSpeculativeCheckpointResume(t *testing.T) {
	// Speculative checkpoints land only at fully repaired group
	// boundaries; each must be resumable and a resume must reproduce the
	// uninterrupted run exactly (group composition derives from ShardSize
	// and the cursor, not run history).
	o := graph.RandomOracle{N: 3000, P: 0.5, Seed: 13}
	opts := Normal(3)
	opts.ShardSize = 600
	opts.Speculate = 3

	var states []RunState
	full := opts
	full.Checkpoint = func(st RunState) {
		if !st.Resumable() {
			t.Fatalf("speculative checkpoint at shard %d not resumable", st.Shards)
		}
		states = append(states, st)
	}
	want, err := Run(context.Background(), o, streamed(full))
	if err != nil {
		t.Fatal(err)
	}
	// 5 shards in groups of 3+2: one checkpoint per group.
	if len(states) != 2 {
		t.Fatalf("%d group checkpoints, want 2", len(states))
	}
	if states[0].Shards != 3 || states[0].NextStart != 1800 {
		t.Fatalf("first group boundary at shard %d / vertex %d, want 3 / 1800",
			states[0].Shards, states[0].NextStart)
	}

	got, err := Run(context.Background(), o, resumed(opts, &states[0]))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Colors {
		if got.Colors[v] != want.Colors[v] {
			t.Fatalf("speculative resume differs at vertex %d", v)
		}
	}
	if got.Shards != want.Shards {
		t.Fatalf("resumed run reports %d shards, want %d", got.Shards, want.Shards)
	}
}

func TestStreamPipelinedCancellation(t *testing.T) {
	// Cancellation at every new boundary: pre-cancelled runs do nothing;
	// a cancel delivered at a shard boundary stops before the next shard
	// colors and the in-flight prebuild is drained with its tracker
	// charges fully released (no leak, even on the error path).
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 99}
	for mode, set := range map[string]func(*Options){
		"pipelined":   func(o *Options) { o.PipelineShards = true },
		"speculative": func(o *Options) { o.Speculate = 3 },
	} {
		opts := Normal(1)
		opts.ShardSize = 500
		set(&opts)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(ctx, o, streamed(opts)); err != context.Canceled {
			t.Fatalf("%s: pre-cancelled stream returned %v", mode, err)
		}

		var tr memtrack.Tracker
		opts.Tracker = &tr
		ctx2, cancel2 := context.WithCancel(context.Background())
		boundaries := 0
		opts.Checkpoint = func(st RunState) {
			boundaries++
			if boundaries == 2 {
				cancel2()
			}
		}
		if _, err := Run(ctx2, o, streamed(opts)); err != context.Canceled {
			t.Fatalf("%s: boundary-cancelled stream returned %v", mode, err)
		}
		if boundaries != 2 {
			t.Fatalf("%s: run continued for %d boundaries after cancellation", mode, boundaries)
		}
		if tr.Current() != 0 {
			t.Fatalf("%s: %d tracked bytes leaked on the cancellation path", mode, tr.Current())
		}
		cancel2()
	}
}

func TestStreamPipelinedBudgetFallback(t *testing.T) {
	// When the budget cannot fit two worst-case shards the governor falls
	// back to sequential execution: PipelinedShards reports 0 and — the
	// point of bit-identity — the coloring is indistinguishable from the
	// sequential stream, so the fallback is invisible except in the stats.
	o := graph.RandomOracle{N: 3000, P: 0.5, Seed: 41}
	opts := Normal(7)
	opts.ShardSize = 1000

	seq, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}

	pipe := opts
	pipe.PipelineShards = true
	// Room for ~1.5 worst-case shards: one lane fits, two do not.
	pipe.MemoryBudgetBytes = shardFootprint(&pipe, o, 3000, 1000) * 3 / 2
	var tr memtrack.Tracker
	pipe.Tracker = &tr
	res, err := Run(context.Background(), o, streamed(pipe))
	if err != nil {
		t.Fatal(err)
	}
	if res.PipelinedShards != 0 {
		t.Errorf("PipelinedShards = %d under a one-lane budget", res.PipelinedShards)
	}
	if res.OverlapRatio != 0 {
		t.Errorf("overlap ratio %v for a sequential fallback", res.OverlapRatio)
	}
	for v := range seq.Colors {
		if res.Colors[v] != seq.Colors[v] {
			t.Fatalf("budget fallback differs from sequential stream at vertex %d", v)
		}
	}
	if tr.Peak() > pipe.MemoryBudgetBytes && !res.BudgetExceeded {
		t.Error("budget crossing went unreported")
	}
}

func TestStreamPipelinedAutoShardBudget(t *testing.T) {
	// Budget-derived shard sizing under pipelining: the run must stay
	// proper and any budget crossing must be reported, never silent —
	// the combined two-lane footprint is what the budget governs.
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 5}
	for mode, set := range map[string]func(*Options){
		"pipelined":   func(o *Options) { o.PipelineShards = true },
		"speculative": func(o *Options) { o.Speculate = 3 },
	} {
		opts := Normal(3)
		set(&opts)
		var tr memtrack.Tracker
		opts.Tracker = &tr
		opts.MemoryBudgetBytes = 8 << 20
		res, err := Run(context.Background(), o, streamed(opts))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := graph.VerifyOracle(o, res.Colors); err != nil {
			t.Fatalf("%s: coloring not proper: %v", mode, err)
		}
		if tr.Peak() > opts.MemoryBudgetBytes && !res.BudgetExceeded {
			t.Errorf("%s: peak %d over budget %d but not reported",
				mode, tr.Peak(), opts.MemoryBudgetBytes)
		}
		if tr.Current() != 0 {
			t.Errorf("%s: %d tracked bytes leaked", mode, tr.Current())
		}
	}
}

func TestStreamPipelinedInjectedBuilderFallsBack(t *testing.T) {
	// An injected Builder is bound to one arena: pipelining must quietly
	// run sequentially instead of sharing the instance across lanes.
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 3}
	opts := Normal(7)
	opts.ShardSize = 500
	if err := opts.validate(); err != nil {
		t.Fatal(err)
	}
	injected := opts // validated copy: Builder now set, builderInjected recorded
	injected.PipelineShards = true
	res, err := Run(context.Background(), o, streamed(injected))
	if err != nil {
		t.Fatal(err)
	}
	if res.PipelinedShards != 0 {
		t.Errorf("PipelinedShards = %d with an injected builder", res.PipelinedShards)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatalf("injected-builder fallback not proper: %v", err)
	}
}

func TestNextShardConcurrentAttribution(t *testing.T) {
	// The satellite regression: under pipelining the run tracker's peak
	// includes the overlapped neighbor's build, so sizing from it would
	// systematically shrink shards. nextShardConcurrent takes the unit's
	// own bytes (its lane child's peak) for the retarget and uses the
	// combined root peak only for the halve-on-crossing verdict.
	var root memtrack.Tracker
	a, b := root.Child(), root.Child()
	a.Alloc(2 << 20) // the finished unit's own footprint
	b.Alloc(2 << 20) // the neighbor still in flight
	budget := int64(16 << 20)

	got := nextShardConcurrent(1000, 1000, a.Peak(), budget, 0, root.Peak(), 0, true, 2)
	naive := nextShardConcurrent(1000, 1000, root.Peak(), budget, 0, root.Peak(), 0, true, 2)
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
	if h := nextShardConcurrent(1000, 1000, a.Peak(), 3<<20, 0, 4<<20, 0, true, 2); h != 500 {
		t.Fatalf("fresh crossing: shard %d, want 500", h)
	}
	// A stale crossing (root peak unchanged since before the unit) must
	// not keep halving shards that behaved: the retarget path runs.
	if nh := nextShardConcurrent(1000, 1000, 512<<10, 3<<20, 0, 4<<20, 4<<20, true, 2); nh <= 500 {
		t.Fatalf("stale crossing still halved: shard %d", nh)
	}
	// Halving floors at the minimum shard.
	if f := nextShardConcurrent(300, 300, 10<<20, 1<<20, 0, 2<<20, 0, true, 2); f != minShard {
		t.Fatalf("halve floor = %d, want %d", f, minShard)
	}
	// No budget or no evidence: the proven size stands.
	if k := nextShardConcurrent(1000, 1000, 0, budget, 0, 1<<20, 0, true, 2); k != 1000 {
		t.Fatalf("no-evidence retarget moved the shard to %d", k)
	}
	if k := nextShardConcurrent(1000, 1000, 1<<20, 0, 0, 1<<20, 0, true, 2); k != 1000 {
		t.Fatalf("budget-free retarget moved the shard to %d", k)
	}
}
