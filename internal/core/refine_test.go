package core

import (
	"context"
	"math/rand"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/pauli"
)

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

	// The budget-derived moved cap binds. autoShard at a zero baseline is at
	// least the cap the run derived from its own baseline, so no round that
	// dissolved more than one class moved more; and a round that stopped
	// short of its quarter-of-the-classes limit was stopped by the cap.
	moveCap := autoShard(&opts, o, o.N, o.N, 0, 1)
	capped := 0
	for _, r := range st.RoundStats {
		if r.Classes > 1 && r.Moved > moveCap {
			t.Fatalf("round %d moved %d vertices over cap %d", r.Round, r.Moved, moveCap)
		}
		C := r.Ceiling + r.Classes
		limit := C - 1
		if frac := C / 4; frac >= 1 && frac < limit {
			limit = frac
		}
		if r.Classes < limit {
			capped++
		}
	}
	if capped == 0 {
		t.Fatalf("no round reached the moved cap %d: %d rounds", moveCap, len(st.RoundStats))
	}
}

func TestRefineBudgetAtScale(t *testing.T) {
	// A budgeted refinement well past the frontier scan's 4096-vertex chunk
	// floor. A round holds one index over the whole frozen rest (4 bytes a
	// vertex plus 8 a color) only where the budget model fits it beside the
	// round; here it does not, so the rounds scan in chunks and the peak
	// stays under a budget that an index held regardless crossed (414,268
	// bytes against 323,840).
	const n = 40000
	o := graph.RandomOracle{N: n, P: 0.01, Seed: 3}
	one := Normal(1)
	one.Backend = "sequential"
	base, err := Run(context.Background(), o, one)
	if err != nil {
		t.Fatal(err)
	}
	var tr memtrack.Tracker
	opts := one
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = 4*n + 160<<10 // the color array plus the headroom
	st, err := refineStats(Run(context.Background(), o, refining(opts, base.Colors, RefineOptions{Rounds: 4})))
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetExceeded || tr.Peak() > opts.MemoryBudgetBytes {
		t.Fatalf("peak %d over the %d-byte budget (reported %v)", tr.Peak(), opts.MemoryBudgetBytes, st.BudgetExceeded)
	}
	if st.ColorsAfter >= st.ColorsBefore {
		t.Fatalf("budgeted refinement won nothing: %d -> %d", st.ColorsBefore, st.ColorsAfter)
	}
	if tr.Current() != 0 {
		t.Fatalf("refinement leaked %d tracked bytes", tr.Current())
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

	// A reachable target stops at (not below) it.
	target := base.NumColors * 9 / 10
	st, err = refineStats(Run(context.Background(), o, refining(Normal(6), base.Colors, RefineOptions{Rounds: 64, TargetColors: target})))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, st.Colors); err != nil {
		t.Fatal(err)
	}
	if st.ColorsAfter < target {
		t.Fatalf("refined past the target: %d < %d", st.ColorsAfter, target)
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
		{Rounds: -1}, {TargetColors: -1},
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
