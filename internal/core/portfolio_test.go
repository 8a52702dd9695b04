package core

import (
	"context"
	"sync"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

func TestRaceBoundConcurrentExactness(t *testing.T) {
	// The shared bound under concurrent publishes (run with -race): whatever
	// the interleaving, the final bound is the exact lexicographic minimum of
	// everything offered, and beaten() is consistent with it.
	var b raceBound
	const workers = 16
	offers := make([][2]int, 0, workers*8)
	for w := 0; w < workers; w++ {
		for k := 0; k < 8; k++ {
			offers = append(offers, [2]int{50 + (w*7+k*13)%40, w})
		}
	}
	wantC, wantI := offers[0][0], offers[0][1]
	for _, o := range offers[1:] {
		if o[0] < wantC || (o[0] == wantC && o[1] < wantI) {
			wantC, wantI = o[0], o[1]
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				o := offers[w*8+k]
				b.offer(o[0], o[1])
				// Observe mid-race: the bound only ever improves, so anything
				// already published must beat (or equal) what we offered.
				if c, i, ok := b.best(); !ok || packBound(c, i) > packBound(o[0], o[1]) {
					t.Errorf("bound (%d,%d) worse than published offer (%d,%d)", c, i, o[0], o[1])
				}
			}
		}(w)
	}
	wg.Wait()

	c, i, ok := b.best()
	if !ok || c != wantC || i != wantI {
		t.Fatalf("final bound (%d,%d,%v), want (%d,%d)", c, i, ok, wantC, wantI)
	}
	if !b.beaten(wantC, wantI) {
		t.Error("the published minimum must beat itself (>= is a loss)")
	}
	if b.beaten(wantC-1, workers) {
		t.Error("a strictly better count reported beaten")
	}
	if !b.beaten(wantC, wantI+1) {
		t.Error("an index tie-loss not reported beaten")
	}
}

func TestPortfolioCancellationDrainsLanes(t *testing.T) {
	// A hopeless entrant is retired by the shared bound, and however the
	// cancellation lands, every lane's tracker charges drain back to zero —
	// the balanced-attribution guarantee of the lane pattern.
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 9}
	base := Normal(3)
	base.ShardSize = 400
	hopeless := base
	hopeless.Seed = 4
	hopeless.MaxIterations = 1 // immediate singleton fallback: the prefix count explodes
	rival := base
	rival.Seed = 5

	var root memtrack.Tracker
	opts := base
	opts.Tracker = &root
	opts.Stream = true
	opts.Refine = &RefineOptions{}
	opts.Portfolio = &PortfolioOptions{Variants: []Options{base, hopeless, rival}}
	pres, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if root.Current() != 0 {
		t.Errorf("%d tracked bytes leaked across the race", root.Current())
	}
	if pres.Portfolio.CancelledEntrants == 0 {
		t.Fatal("the fallback entrant was never cancelled")
	}
	bad := pres.Portfolio.Entrants[1]
	if !bad.Cancelled {
		t.Fatalf("entrant 1 (MaxIterations=1) survived with %d colors", bad.Colors)
	}
	if bad.CancelledAtShard < 1 || bad.CancelledAtShard >= 4 {
		t.Errorf("cancelled at shard %d, want an early boundary of the 4-shard run", bad.CancelledAtShard)
	}
	if bad.Colors != 0 {
		t.Errorf("cancelled entrant reports %d colors", bad.Colors)
	}
	if pres.Portfolio.Winner == 1 {
		t.Error("a cancelled entrant won")
	}
	if err := graph.VerifyOracle(o, pres.Colors); err != nil {
		t.Fatalf("final coloring not proper: %v", err)
	}

	// Determinism of the guaranteed part: the phase-A bound is published
	// before any racer starts, so the hopeless entrant's cancellation — and
	// the winner — reproduce exactly.
	root.Reset()
	again, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Portfolio.Entrants[1].Cancelled || again.Portfolio.Winner != pres.Portfolio.Winner ||
		again.NumColors != pres.NumColors {
		t.Fatalf("cancellation run not deterministic: winner %d/%d colors vs %d/%d",
			again.Portfolio.Winner, again.NumColors, pres.Portfolio.Winner, pres.NumColors)
	}
}

func TestPortfolioBudgetSplitsAcrossEntrants(t *testing.T) {
	// The race's budget promise covers all lanes combined: phase A runs
	// under the full budget, racers split it by realized concurrency, and
	// the root tracker's peak respects the total (entrants × lane footprint,
	// the same arithmetic the stream governor applies one level down).
	if got := entrantBudget(64<<20, 4); got != 16<<20 {
		t.Fatalf("entrantBudget(64MiB, 4) = %d", got)
	}
	if got := entrantBudget(0, 4); got != 0 {
		t.Fatalf("entrantBudget without a budget = %d", got)
	}
	if got := entrantBudget(64<<20, 0); got != 0 {
		t.Fatalf("entrantBudget with no racers = %d", got)
	}

	o := graph.RandomOracle{N: 2000, P: 0.5, Seed: 17}
	var root memtrack.Tracker
	opts := Normal(3)
	opts.Tracker = &root
	opts.MemoryBudgetBytes = 24 << 20
	opts.Stream = true
	opts.Refine = &RefineOptions{}
	opts.Portfolio = &PortfolioOptions{Entrants: 4}
	pres, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if root.Current() != 0 {
		t.Errorf("%d tracked bytes leaked", root.Current())
	}
	if pres.HostPeakBytes > opts.MemoryBudgetBytes && !pres.BudgetExceeded {
		t.Errorf("portfolio peak %d over budget %d but not reported",
			pres.HostPeakBytes, opts.MemoryBudgetBytes)
	}
	for i, e := range pres.Portfolio.Entrants {
		if e.Cancelled {
			continue
		}
		if e.PeakBytes <= 0 {
			t.Errorf("entrant %d reports no lane peak", i)
		}
		if e.PeakBytes > pres.HostPeakBytes {
			t.Errorf("entrant %d lane peak %d above the combined root peak %d",
				i, e.PeakBytes, pres.HostPeakBytes)
		}
	}
	if err := graph.VerifyOracle(o, pres.Colors); err != nil {
		t.Fatalf("final coloring not proper: %v", err)
	}
}

func TestPortfolioAutoRefinesWinner(t *testing.T) {
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 23}
	opts := Normal(3)
	opts.ShardSize = 500
	opts.Stream = true
	opts.Refine = &RefineOptions{}
	opts.Portfolio = &PortfolioOptions{Entrants: 3}
	pres, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Refine == nil {
		t.Fatal("winner was not auto-refined")
	}
	winner := pres.Portfolio.Entrants[pres.Portfolio.Winner].Colors
	if pres.Refine.ColorsBefore != winner {
		t.Errorf("refine started from %d colors, winner had %d", pres.Refine.ColorsBefore, winner)
	}
	if pres.NumColors > winner {
		t.Errorf("refined count %d above the winner's %d", pres.NumColors, winner)
	}
	if err := graph.VerifyOracle(o, pres.Colors); err != nil {
		t.Fatalf("refined coloring not proper: %v", err)
	}

	// Without Refine the winner stays raw.
	opts.Refine = nil
	raw, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Refine != nil {
		t.Error("a race without Refine still refined")
	}
	if raw.NumColors != raw.Portfolio.Entrants[raw.Portfolio.Winner].Colors {
		t.Error("the result's colors diverge from the raw winner without refinement")
	}
}

func TestPortfolioMeasurementModeMatchesOneShot(t *testing.T) {
	// Tune's mode: DisableBound with one-shot entrants races explicit variants without
	// pruning or cancellation, and every entrant's measurement is exactly
	// what a lone one-shot run of that configuration would have produced.
	o := graph.RandomOracle{N: 900, P: 0.5, Seed: 31}
	mk := func(pf, a float64) Options {
		return Options{PaletteFrac: pf, Alpha: a, Seed: 5, Strategy: DynamicBuckets}
	}
	variants := []Options{mk(0.125, 2), mk(0.03, 4.5), mk(0.2, 1)}
	base := variants[0]
	base.Portfolio = &PortfolioOptions{Variants: variants, DisableBound: true, MaxConcurrent: 2}
	pres, err := Run(context.Background(), o, base)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Portfolio.Bound != 0 {
		t.Errorf("measurement mode published a bound of %d", pres.Portfolio.Bound)
	}
	for i, v := range variants {
		solo, err := Run(context.Background(), o, v)
		if err != nil {
			t.Fatal(err)
		}
		e := pres.Portfolio.Entrants[i]
		if e.Cancelled {
			t.Fatalf("entrant %d cancelled in measurement mode", i)
		}
		if e.Colors != solo.NumColors || e.MaxConflictEdges != solo.MaxConflictEdges {
			t.Errorf("entrant %d measured (%d colors, %d edges), solo run (%d, %d)",
				i, e.Colors, e.MaxConflictEdges, solo.NumColors, solo.MaxConflictEdges)
		}
		if e.BoundPrunes != 0 {
			t.Errorf("entrant %d pruned %d slots with the bound disabled", i, e.BoundPrunes)
		}
	}
}

func TestPortfolioBoundPrunesObserved(t *testing.T) {
	// Racers run under the frozen phase-A ceiling: at least one surviving
	// racer must actually record pruned candidate slots, and the aggregate
	// must tie out.
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 47}
	opts := Normal(3)
	opts.ShardSize = 400
	opts.Stream = true
	opts.Portfolio = &PortfolioOptions{Entrants: 4}
	pres, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range pres.Portfolio.Entrants {
		total += e.BoundPrunes
	}
	if total != pres.Portfolio.BoundPrunes {
		t.Errorf("aggregate BoundPrunes %d, entrant sum %d", pres.Portfolio.BoundPrunes, total)
	}
	if pres.Portfolio.Entrants[0].BoundPrunes != 0 {
		t.Error("the phase-A baseline pruned against its own bound")
	}
	if pres.Portfolio.BoundPrunes == 0 {
		t.Error("no racer ever pruned against the shared bound")
	}
}

func TestDefaultVariantsDeterministic(t *testing.T) {
	base := Normal(11)
	base.ShardSize = 1000
	key := func(v Options) [5]interface{} {
		return [5]interface{}{v.Seed, v.Strategy, v.ShardSize, v.Speculate, v.PaletteFrac}
	}
	a, b := DefaultVariants(base, 8), DefaultVariants(base, 8)
	if key(a[0]) != key(base) {
		t.Fatal("entrant 0 is not the base configuration")
	}
	seeds := map[int64]bool{}
	for i := range a {
		if key(a[i]) != key(b[i]) {
			t.Fatalf("variant %d not deterministic", i)
		}
		if seeds[a[i].Seed] {
			t.Fatalf("variant %d reuses seed %d", i, a[i].Seed)
		}
		seeds[a[i].Seed] = true
		switch a[i].Strategy {
		case DynamicBuckets, StaticNatural, StaticLargest, StaticRandom:
		default:
			t.Fatalf("variant %d has strategy %q", i, a[i].Strategy)
		}
	}
	// The rotation must actually vary strategy and schedule across 8 entrants.
	strategies, schedules := map[ListStrategy]bool{}, map[int]bool{}
	for _, v := range a {
		strategies[v.Strategy] = true
		schedules[v.Speculate] = true
	}
	if len(strategies) < 2 || len(schedules) < 2 {
		t.Fatalf("8 variants span %d strategies and %d schedules", len(strategies), len(schedules))
	}
}

func TestPortfolioValidation(t *testing.T) {
	o := graph.RandomOracle{N: 100, P: 0.5, Seed: 1}
	opts := Normal(1)
	cases := []PortfolioOptions{
		{Entrants: 0},
		{Entrants: 1},
		{Entrants: MaxPortfolioEntrants + 1},
		{Variants: make([]Options, 1)},
	}
	for i, popts := range cases {
		opts.Portfolio = &popts
		if _, err := Run(context.Background(), o, streamed(opts)); err == nil {
			t.Errorf("case %d: bad portfolio options accepted", i)
		}
	}
}
