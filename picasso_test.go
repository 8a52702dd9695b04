package picasso_test

import (
	"context"
	"testing"

	"picasso"
)

func TestParseAndColorPauli(t *testing.T) {
	set, err := picasso.ParsePauliStrings([]string{
		"IIII", "XYXY", "YYXY", "XXXY", "YXXY", "XYYY", "YYYY", "XXYY",
		"YXYY", "XYXX", "YYXX", "XXXX", "YXXX", "XYYX", "YYYX", "XXYX", "YXYX",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := picasso.Run(context.Background(), picasso.NewPauliOracle(set), picasso.Aggressive(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.VerifyGrouping(set, res.Colors); err != nil {
		t.Fatal(err)
	}
	groups := picasso.Groups(set, res.Colors)
	if len(groups) != res.NumColors {
		t.Fatalf("groups %d vs colors %d", len(groups), res.NumColors)
	}
	if len(groups) >= set.Len() {
		t.Errorf("no compression: %d groups for %d strings", len(groups), set.Len())
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != set.Len() {
		t.Fatalf("groups cover %d of %d strings", total, set.Len())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := picasso.ParsePauliStrings(nil); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := picasso.ParsePauliStrings([]string{"XX", "QQ"}); err == nil {
		t.Error("bad letters accepted")
	}
	if _, err := picasso.ParsePauliStrings([]string{"XX", "XXX"}); err == nil {
		t.Error("ragged lengths accepted")
	}
}

func TestColorRandomGraph(t *testing.T) {
	o := picasso.RandomGraph(300, 0.5, 7)
	res, err := picasso.Run(context.Background(), o, picasso.Normal(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.Verify(o, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestComplementOf(t *testing.T) {
	o := picasso.RandomGraph(50, 0.3, 9)
	c := picasso.ComplementOf(o)
	for u := 0; u < 50; u++ {
		for v := 0; v < 50; v++ {
			if u != v && o.HasEdge(u, v) == c.HasEdge(u, v) {
				t.Fatalf("complement wrong at (%d,%d)", u, v)
			}
		}
	}
}

func TestBuildMolecule(t *testing.T) {
	set, err := picasso.BuildMolecule("H4 1D sto3g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Qubits() != 8 {
		t.Fatalf("qubits = %d", set.Qubits())
	}
	grown, err := picasso.BuildMolecule("H4 1D sto3g", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() <= set.Len() {
		t.Errorf("target growth failed: %d vs %d", grown.Len(), set.Len())
	}
	if _, err := picasso.BuildMolecule("nonsense", 0); err == nil {
		t.Error("bad molecule accepted")
	}
}

func TestDeviceBudget(t *testing.T) {
	o := picasso.RandomGraph(200, 0.6, 11)
	opts := picasso.Normal(2)
	opts.Device = picasso.NewDevice("small", 1<<28, 0)
	res, err := picasso.Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.Verify(o, res.Colors); err != nil {
		t.Fatal(err)
	}
	if picasso.NewA100().Capacity != 40e9 {
		t.Error("A100 capacity wrong")
	}
}

func TestMemoryTrackerIntegration(t *testing.T) {
	var tr picasso.MemoryTracker
	opts := picasso.Normal(4)
	opts.Tracker = &tr
	o := picasso.RandomGraph(200, 0.5, 13)
	res, err := picasso.Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostPeakBytes <= 0 {
		t.Error("no peak recorded")
	}
}

func TestEndToEndMoleculeGrouping(t *testing.T) {
	set, err := picasso.BuildMolecule("H2 1D 631g", 1500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := picasso.Run(context.Background(), picasso.NewPauliOracle(set), picasso.Normal(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.VerifyGrouping(set, res.Colors); err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.NumColors) / float64(set.Len())
	if ratio > 0.5 {
		t.Errorf("weak compression: %d groups for %d strings (%.0f%%)",
			res.NumColors, set.Len(), 100*ratio)
	}
}

// TestStreamedBudgetAcceptance is the PR's acceptance gate: a streamed run
// at n = 50k with a budget set well below the one-shot run's measured peak
// completes with a verified proper coloring whose tracked peak stays under
// the budget, at a color count within a fixed factor of one-shot quality.
func TestStreamedBudgetAcceptance(t *testing.T) {
	const n = 50000
	o := picasso.RandomGraph(n, 0.5, 77)

	var oneTr picasso.MemoryTracker
	oneOpts := picasso.Normal(5)
	oneOpts.Tracker = &oneTr
	oneShot, err := picasso.Run(context.Background(), o, oneOpts)
	if err != nil {
		t.Fatal(err)
	}
	if oneTr.Peak() == 0 {
		t.Fatal("one-shot run tracked no memory")
	}

	budget := oneTr.Peak() / 3
	var tr picasso.MemoryTracker
	opts := picasso.Normal(5)
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = budget
	res, err := picasso.Stream(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.Verify(o, res.Colors); err != nil {
		t.Fatalf("streamed coloring not proper: %v", err)
	}
	if tr.Peak() > budget {
		t.Fatalf("tracked peak %d over budget %d (one-shot peak %d)",
			tr.Peak(), budget, oneTr.Peak())
	}
	if res.BudgetExceeded {
		t.Fatal("budget reported exceeded")
	}
	if res.Shards < 2 {
		t.Fatalf("budget a third of one-shot peak produced %d shard(s)", res.Shards)
	}
	if res.NumColors > 2*oneShot.NumColors {
		t.Fatalf("streamed %d colors vs one-shot %d (factor > 2)",
			res.NumColors, oneShot.NumColors)
	}
	t.Logf("one-shot: peak %.2f MB, %d colors; streamed: budget %.2f MB, peak %.2f MB, %d shards, %d colors",
		float64(oneTr.Peak())/1e6, oneShot.NumColors,
		float64(budget)/1e6, float64(tr.Peak())/1e6, res.Shards, res.NumColors)
}

// TestRefineStreamedAcceptance is this PR's acceptance gate: on the
// streamed n = 20k d = 0.5 Normal benchmark under a PR-4-style budget (a
// third of the measured one-shot peak), the palette-refinement pass cuts
// the streamed color count by at least 10% while the tracked peak stays
// under the budget, and the refined coloring verifies proper. Every
// eliminated color is a measurement group saved in the quantum workload.
func TestRefineStreamedAcceptance(t *testing.T) {
	const n = 20000
	o := picasso.RandomGraph(n, 0.5, 11)

	var oneTr picasso.MemoryTracker
	one := picasso.Normal(3)
	one.Tracker = &oneTr
	if _, err := picasso.Run(context.Background(), o, one); err != nil {
		t.Fatal(err)
	}
	budget := oneTr.Peak() / 3

	var tr picasso.MemoryTracker
	opts := picasso.Normal(3)
	opts.Tracker = &tr
	opts.MemoryBudgetBytes = budget
	opts.Stream = true
	opts.Refine = &picasso.RefineOptions{}
	res, err := picasso.Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Refine
	if err := picasso.Verify(o, res.Colors); err != nil {
		t.Fatalf("refined coloring not proper: %v", err)
	}
	if res.NumColors != st.ColorsAfter {
		t.Fatalf("run reports %d colors, refinement ended at %d", res.NumColors, st.ColorsAfter)
	}
	streamed := st.ColorsBefore
	cut := float64(streamed-st.ColorsAfter) / float64(streamed)
	if cut < 0.10 {
		t.Fatalf("refinement cut %.1f%% of %d streamed colors, want >= 10%%", 100*cut, streamed)
	}
	if res.HostPeakBytes > budget || st.HostPeakBytes > budget {
		t.Fatalf("peaks %d (run) / %d (refine) over budget %d", res.HostPeakBytes, st.HostPeakBytes, budget)
	}
	if res.BudgetExceeded || st.BudgetExceeded {
		t.Fatal("budget reported exceeded")
	}
	prev := st.ColorsBefore
	for _, r := range st.RoundStats {
		if r.ColorsAfter > prev {
			t.Fatalf("round %d raised colors %d -> %d", r.Round, prev, r.ColorsAfter)
		}
		prev = r.ColorsAfter
	}
	t.Logf("streamed: %d colors under %.2f MB budget (%d shards); refined: %d colors (-%.1f%%) in %d rounds, refine peak %.2f MB",
		streamed, float64(budget)/1e6, res.Shards,
		st.ColorsAfter, 100*cut, st.Rounds, float64(st.HostPeakBytes)/1e6)
}
