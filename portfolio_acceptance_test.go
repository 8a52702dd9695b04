package picasso_test

import (
	"context"
	"testing"

	"picasso"
)

// TestPortfolioAcceptance is the portfolio's acceptance bar on the n=20k
// d=0.5 instance: an 8-entrant portfolio under the same total 64 MiB budget
// must beat the default single-entrant streamed run by at least one color —
// deterministically across two repeated races — with the tracked peak inside
// the budget, and with an entrant counted cancelled exactly when it stopped
// early and so reports no colors.
func TestPortfolioAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance run")
	}
	const (
		n      = 20000
		budget = int64(64) << 20
	)
	o := picasso.RandomGraph(n, 0.5, 11)
	ctx := context.Background()

	opts := picasso.Normal(3)
	opts.MemoryBudgetBytes = budget
	single, err := picasso.Stream(ctx, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.Verify(o, single.Colors); err != nil {
		t.Fatal(err)
	}

	race := func() *picasso.Result {
		ropts := opts
		var tr picasso.MemoryTracker
		ropts.Tracker = &tr
		ropts.Stream = true
		ropts.Portfolio = &picasso.PortfolioOptions{Entrants: 8}
		res, err := picasso.Run(ctx, o, ropts)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Peak() > budget {
			t.Errorf("tracked peak %d over the %d budget", tr.Peak(), budget)
		}
		if tr.Current() != 0 {
			t.Errorf("%d tracked bytes leaked across the race", tr.Current())
		}
		if res.BudgetExceeded {
			t.Error("budget reported exceeded")
		}
		return res
	}

	first := race()
	if err := picasso.Verify(o, first.Colors); err != nil {
		t.Fatal(err)
	}
	if first.NumColors >= single.NumColors {
		t.Errorf("portfolio winner %d colors, single-entrant run %d: not strictly fewer",
			first.NumColors, single.NumColors)
	}
	if first.Portfolio.Entrants[0].Colors != single.NumColors {
		t.Errorf("entrant 0 (%d colors) is not the single-entrant baseline (%d)",
			first.Portfolio.Entrants[0].Colors, single.NumColors)
	}
	for i, e := range first.Portfolio.Entrants {
		if e.Cancelled != (e.Colors == 0) || e.Cancelled && e.CancelledAtShard < 1 {
			t.Errorf("entrant %d: cancelled %v at shard %d with %d colors", i, e.Cancelled, e.CancelledAtShard, e.Colors)
		}
	}

	second := race()
	if second.Portfolio.Winner != first.Portfolio.Winner || second.NumColors != first.NumColors {
		t.Fatalf("race not deterministic: winner %d/%d colors vs %d/%d",
			first.Portfolio.Winner, first.NumColors, second.Portfolio.Winner, second.NumColors)
	}
	for v := range first.Colors {
		if second.Colors[v] != first.Colors[v] {
			t.Fatalf("winning coloring differs at vertex %d across repeated races", v)
		}
	}
	t.Logf("single %d colors; portfolio winner %d (entrant %d), %d cancelled, time-to-best %v",
		single.NumColors, first.NumColors, first.Portfolio.Winner,
		first.Portfolio.CancelledEntrants, first.Portfolio.TimeToBest)
}
