package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/pauli"
)

// refineBackendOptions mirrors streamBackendOptions for the refinement
// entry point.
func refineBackendOptions(seed int64) map[string]Options {
	mk := func(f func(*Options)) Options {
		o := Normal(seed)
		f(&o)
		return o
	}
	return map[string]Options{
		"sequential": mk(func(o *Options) { o.Backend = "sequential" }),
		"parallel":   mk(func(o *Options) { o.Backend = "parallel"; o.Workers = 4 }),
		"gpu":        mk(func(o *Options) { o.Backend = "gpu"; o.Device = gpusim.NewDevice("t", 1<<30, 4) }),
	}
}

func TestRefineProperMonotoneEveryBackend(t *testing.T) {
	// The refinement contract, per registered backend: the refined coloring
	// stays proper under VerifyOracle, the color count is monotonically
	// non-increasing round over round, every round's arithmetic closes
	// (moved = recolored + stuck), and all backends — sharing the
	// bit-identical conflict builds — produce the same refined coloring.
	o := graph.RandomOracle{N: 2500, P: 0.5, Seed: 41}
	base, err := Run(context.Background(), o, Normal(7))
	if err != nil {
		t.Fatal(err)
	}
	orig := append(graph.Coloring(nil), base.Colors...)

	var want graph.Coloring
	for _, name := range []string{"sequential", "parallel", "gpu"} {
		opts := refineBackendOptions(9)[name]
		var tr memtrack.Tracker
		opts.Tracker = &tr
		st, err := refineStats(Run(context.Background(), o, refining(opts, base.Colors, RefineOptions{Rounds: 4})))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := graph.VerifyOracle(o, st.Colors); err != nil {
			t.Fatalf("%s: refined coloring not proper: %v", name, err)
		}
		if st.ColorsBefore != base.NumColors {
			t.Errorf("%s: ColorsBefore %d, input had %d", name, st.ColorsBefore, base.NumColors)
		}
		if st.ColorsAfter > st.ColorsBefore {
			t.Errorf("%s: refinement raised colors %d -> %d", name, st.ColorsBefore, st.ColorsAfter)
		}
		if st.ColorsAfter != st.Colors.NumColors() {
			t.Errorf("%s: ColorsAfter %d but coloring uses %d", name, st.ColorsAfter, st.Colors.NumColors())
		}
		if st.ClassesEliminated != st.ColorsBefore-st.ColorsAfter {
			t.Errorf("%s: eliminated %d with %d -> %d colors", name, st.ClassesEliminated, st.ColorsBefore, st.ColorsAfter)
		}
		if st.ClassesEliminated == 0 {
			t.Errorf("%s: refinement eliminated nothing", name)
		}
		if st.FixedPairsTested == 0 {
			t.Errorf("%s: frozen-frontier pass never ran", name)
		}
		prev := st.ColorsBefore
		for _, r := range st.RoundStats {
			if r.ColorsAfter > prev {
				t.Errorf("%s: round %d raised colors %d -> %d", name, r.Round, prev, r.ColorsAfter)
			}
			prev = r.ColorsAfter
			if r.Recolored+r.Stuck != r.Moved {
				t.Errorf("%s: round %d moved %d != recolored %d + stuck %d",
					name, r.Round, r.Moved, r.Recolored, r.Stuck)
			}
		}
		// The input coloring is never modified — compare against a snapshot,
		// since the in-place renumbering Refine applies to its own copy
		// would leave valid (but different) ids behind if the copy aliased.
		for v := range base.Colors {
			if base.Colors[v] != orig[v] {
				t.Fatalf("%s: Refine scribbled on the input coloring at %d", name, v)
			}
		}
		if want == nil {
			want = st.Colors
			continue
		}
		for v := range want {
			if st.Colors[v] != want[v] {
				t.Fatalf("%s: refined coloring differs from sequential at vertex %d", name, v)
			}
		}
	}
}

func TestRefineDeterministicUnderSeed(t *testing.T) {
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 5}
	base, err := Run(context.Background(), o, Normal(2))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *RefineStats {
		st, err := refineStats(Run(context.Background(), o, refining(Normal(31), base.Colors, RefineOptions{Rounds: 3})))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.ColorsAfter != b.ColorsAfter || a.Rounds != b.Rounds {
		t.Fatalf("reruns disagree: %d colors/%d rounds vs %d/%d",
			a.ColorsAfter, a.Rounds, b.ColorsAfter, b.Rounds)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("reruns disagree at vertex %d", v)
		}
	}
}

func TestRefineHonorsBudget(t *testing.T) {
	// A refinement under a budget keeps its tracked peak under it — the
	// moved-set cap is derived exactly like a streaming shard — and reports
	// the verdict.
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 3}
	var oneTr memtrack.Tracker
	one := Normal(4)
	one.Tracker = &oneTr
	base, err := Run(context.Background(), o, one)
	if err != nil {
		t.Fatal(err)
	}

	budget := oneTr.Peak() / 3
	var tr memtrack.Tracker
	opts := Normal(4)
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = budget
	st, err := refineStats(Run(context.Background(), o, refining(opts, base.Colors, RefineOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, st.Colors); err != nil {
		t.Fatal(err)
	}
	if tr.Peak() > budget {
		t.Fatalf("tracked peak %d over budget %d", tr.Peak(), budget)
	}
	if st.BudgetExceeded {
		t.Fatal("budget reported exceeded")
	}
	if st.HostPeakBytes != tr.Peak() {
		t.Fatalf("stats peak %d, tracker saw %d", st.HostPeakBytes, tr.Peak())
	}
	if tr.Current() != 0 {
		t.Fatalf("refinement leaked %d tracked bytes", tr.Current())
	}
	if st.ColorsAfter >= st.ColorsBefore {
		t.Fatalf("budgeted refinement won nothing: %d -> %d", st.ColorsBefore, st.ColorsAfter)
	}
}

func TestRefineTargetAndMovedCap(t *testing.T) {
	o := graph.RandomOracle{N: 1200, P: 0.5, Seed: 19}
	base, err := Run(context.Background(), o, Normal(6))
	if err != nil {
		t.Fatal(err)
	}
	// An already-satisfied target refines nothing.
	st, err := refineStats(Run(context.Background(), o, refining(Normal(6), base.Colors, RefineOptions{TargetColors: base.NumColors})))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.ColorsAfter != st.ColorsBefore {
		t.Fatalf("satisfied target still refined: %+v", st)
	}

	// A reachable target stops at (not below) it; MaxMoved bounds every
	// round's moved set.
	target := base.NumColors * 9 / 10
	st, err = refineStats(Run(context.Background(), o, refining(Normal(6), base.Colors, RefineOptions{Rounds: 64, TargetColors: target, MaxMoved: 64})))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, st.Colors); err != nil {
		t.Fatal(err)
	}
	if st.ColorsAfter < target {
		t.Fatalf("refined past the target: %d < %d", st.ColorsAfter, target)
	}
	for _, r := range st.RoundStats {
		if r.Moved > 64 && r.Classes > 1 {
			t.Fatalf("round %d moved %d vertices over cap 64", r.Round, r.Moved)
		}
	}

	// A time cap of zero duration... MaxTime is checked before each round,
	// so an immediately-elapsed cap yields zero rounds.
	st, err = refineStats(Run(context.Background(), o, refining(Normal(6), base.Colors, RefineOptions{MaxTime: time.Nanosecond})))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 {
		t.Fatalf("nanosecond time cap ran %d rounds", st.Rounds)
	}
	if err := graph.VerifyOracle(o, st.Colors); err != nil {
		t.Fatalf("timed-out refinement left the coloring improper: %v", err)
	}
}

func TestRefinePauliKeepsCliquePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	set := pauli.RandomSet(16, 1200, rng)
	base, err := Run(context.Background(), NewPauliOracle(set), Normal(5))
	if err != nil {
		t.Fatal(err)
	}
	st, err := refineStats(Run(context.Background(), NewPauliOracle(set), refining(Normal(5), base.Colors, RefineOptions{Rounds: 4})))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(NewPauliOracle(set), st.Colors); err != nil {
		t.Fatalf("refined Pauli coloring not proper: %v", err)
	}
	if err := graph.VerifyCliquePartition(AnticommuteOracle{Set: set}, st.Colors); err != nil {
		t.Fatalf("refined Pauli coloring not a clique partition: %v", err)
	}
	if st.ColorsAfter > st.ColorsBefore {
		t.Fatalf("refinement raised groups %d -> %d", st.ColorsBefore, st.ColorsAfter)
	}
}

func TestRefineStreamPipeline(t *testing.T) {
	// The end-to-end claw-back: stream under a budget, refine under the
	// same budget; the refined coloring is proper and strictly better, and
	// both phases respect the budget.
	o := graph.RandomOracle{N: 4000, P: 0.5, Seed: 17}
	var oneTr memtrack.Tracker
	one := Normal(2)
	one.Tracker = &oneTr
	if _, err := Run(context.Background(), o, one); err != nil {
		t.Fatal(err)
	}

	var tr memtrack.Tracker
	opts := Normal(2)
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = oneTr.Peak() / 3
	opts.Refine = &RefineOptions{}
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Refine
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.ColorsAfter >= st.ColorsBefore {
		t.Fatalf("refinement won nothing: streamed %d -> refined %d", st.ColorsBefore, st.ColorsAfter)
	}
	if res.HostPeakBytes > opts.MemoryBudgetBytes || st.HostPeakBytes > opts.MemoryBudgetBytes {
		t.Fatalf("peaks %d (run) / %d (refine) over budget %d",
			res.HostPeakBytes, st.HostPeakBytes, opts.MemoryBudgetBytes)
	}
	if res.BudgetExceeded || st.BudgetExceeded {
		t.Fatal("budget reported exceeded")
	}
}

func TestRefineValidation(t *testing.T) {
	o := graph.RandomOracle{N: 100, P: 0.5, Seed: 1}
	base, err := Run(context.Background(), o, Normal(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := refineStats(Run(ctx, o, refining(Normal(1), base.Colors[:50], RefineOptions{}))); err == nil {
		t.Error("short coloring accepted")
	}
	broken := append(graph.Coloring(nil), base.Colors...)
	broken[3] = graph.Uncolored
	if _, err := refineStats(Run(ctx, o, refining(Normal(1), broken, RefineOptions{}))); err == nil {
		t.Error("incomplete coloring accepted")
	}
	for _, ropts := range []RefineOptions{
		{Rounds: -1}, {TargetColors: -1}, {StallRounds: -1}, {MaxMoved: -1}, {MaxTime: -time.Second},
	} {
		if _, err := refineStats(Run(ctx, o, refining(Normal(1), base.Colors, ropts))); err == nil {
			t.Errorf("bad options %+v accepted", ropts)
		}
	}
}

func TestRefineCancellation(t *testing.T) {
	o := graph.RandomOracle{N: 2000, P: 0.5, Seed: 9}
	base, err := Run(context.Background(), o, Normal(3))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-cancelled: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := refineStats(Run(ctx, o, refining(Normal(3), base.Colors, RefineOptions{}))); err != context.Canceled {
		t.Fatalf("pre-cancelled refinement returned %v", err)
	}
	// Cancel mid-run from the progress hook: the engine observes it at the
	// next stage boundary.
	ctx2, cancel2 := context.WithCancel(context.Background())
	opts := Normal(3)
	iters := 0
	opts.Progress = func(IterStats) {
		iters++
		if iters == 2 {
			cancel2()
		}
	}
	if _, err := refineStats(Run(ctx2, o, refining(opts, base.Colors, RefineOptions{}))); err != context.Canceled {
		t.Fatalf("mid-run cancelled refinement returned %v", err)
	}
	if iters != 2 {
		t.Fatalf("refinement ran %d iterations past cancellation", iters)
	}
}

func TestRefineArenaReuseDeterminism(t *testing.T) {
	// A warm arena (the service steady state) must not change results.
	o := graph.RandomOracle{N: 1000, P: 0.5, Seed: 21}
	base, err := Run(context.Background(), o, Normal(4))
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	run := func() *RefineStats {
		opts := Normal(11)
		opts.Arena = arena
		st, err := refineStats(Run(context.Background(), o, refining(opts, base.Colors, RefineOptions{Rounds: 3})))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := run()
	b := run()
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("warm-arena rerun differs at vertex %d", v)
		}
	}
	if err := graph.VerifyOracle(o, b.Colors); err != nil {
		t.Fatal(err)
	}
}
