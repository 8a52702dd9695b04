package core

import (
	"context"
	"slices"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

func TestPortfolioCancellationDrainsLanes(t *testing.T) {
	// A hopeless entrant is retired by the winner record, and however the
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

	// Determinism of the guaranteed part: entrant 0's result is recorded
	// before any racer starts, so the hopeless entrant's cancellation — and
	// the winner — reproduce exactly.
	root.ResetPeak()
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
	// Tune's race: one-shot entrants have no checkpoints, so no entrant is
	// cancelled, and every entrant's measurement is exactly what a lone
	// one-shot run of that configuration would have produced.
	o := graph.RandomOracle{N: 900, P: 0.5, Seed: 31}
	mk := func(pf, a float64) Options {
		return Options{PaletteFrac: pf, Alpha: a, Seed: 5, Strategy: DynamicBuckets}
	}
	variants := []Options{mk(0.125, 2), mk(0.03, 4.5), mk(0.2, 1)}
	base := variants[0]
	base.Portfolio = &PortfolioOptions{Variants: variants, MaxConcurrent: 2}
	pres, err := Run(context.Background(), o, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		solo, err := Run(context.Background(), o, v)
		if err != nil {
			t.Fatal(err)
		}
		e := pres.Portfolio.Entrants[i]
		if e.Cancelled {
			t.Fatalf("one-shot entrant %d cancelled", i)
		}
		if e.Colors != solo.NumColors || e.MaxConflictEdges != solo.MaxConflictEdges {
			t.Errorf("entrant %d measured (%d colors, %d edges), solo run (%d, %d)",
				i, e.Colors, e.MaxConflictEdges, solo.NumColors, solo.MaxConflictEdges)
		}
	}
}

func TestPortfolioCancelledMeansStopped(t *testing.T) {
	// An entrant counts as cancelled only when the race stopped it before
	// its last shard, and then it reports no run. An entrant whose hook
	// fired at its final checkpoint had already finished: it reports its
	// colors and shards and is not counted.
	o := graph.RandomOracle{N: 1500, P: 0.5, Seed: 47}
	opts := Normal(3)
	opts.ShardSize = 400
	opts.Stream = true
	opts.Portfolio = &PortfolioOptions{Entrants: 4}
	pres, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	variants := DefaultVariants(opts, 4)
	cancelled := 0
	for i, e := range pres.Portfolio.Entrants {
		shards := (o.N + variants[i].ShardSize - 1) / variants[i].ShardSize
		if !e.Cancelled {
			if e.Colors == 0 || e.Shards != shards || e.CancelledAtShard != 0 {
				t.Errorf("finished entrant %d: %d colors in %d of %d shards, cancelled at shard %d",
					i, e.Colors, e.Shards, shards, e.CancelledAtShard)
			}
			continue
		}
		cancelled++
		if e.Colors != 0 || e.Shards != 0 || e.CancelledAtShard < 1 || e.CancelledAtShard >= shards {
			t.Errorf("entrant %d counted cancelled at shard %d of %d with %d colors",
				i, e.CancelledAtShard, shards, e.Colors)
		}
	}
	if cancelled != pres.Portfolio.CancelledEntrants {
		t.Errorf("CancelledEntrants %d, %d cancelled rows", pres.Portfolio.CancelledEntrants, cancelled)
	}
}

func TestPortfolioWinnerConcurrentExactness(t *testing.T) {
	// The winner record under concurrent completions and checkpoint
	// cancellations (run with -race): whatever the interleaving, the winner
	// is the lexicographic minimum of (colors, index) over what every entrant
	// would have produced alone, cancelled entrants included, and its
	// coloring is that lone run's bit for bit. Entrant 1 falls back at once,
	// so entrant 0's recorded count retires it; every other racer's
	// configuration races twice, so the index tie-break decides between two
	// equal counts.
	o := graph.RandomOracle{N: 2000, P: 0.5, Seed: 13}
	base := Normal(3)
	base.ShardSize = 256
	base.Stream = true
	field := DefaultVariants(base, 4)
	hopeless := field[0]
	hopeless.Seed = 4
	hopeless.MaxIterations = 1
	variants := []Options{field[0], hopeless, field[1], field[2], field[3], field[3], field[2], field[1]}

	solo := make([]*Result, len(variants))
	for i, v := range variants {
		if i > 4 {
			solo[i] = solo[9-i]
			continue
		}
		res, err := Run(context.Background(), o, v)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}
	want := 0
	for i, r := range solo {
		if r.NumColors < solo[want].NumColors {
			want = i
		}
	}
	if want == 0 {
		t.Fatalf("entrant 0's %d colors beat every racer: no tie-break left to check", solo[0].NumColors)
	}

	for round := 0; round < 3; round++ {
		opts := base
		opts.Portfolio = &PortfolioOptions{Variants: variants}
		pres, err := Run(context.Background(), o, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := pres.Portfolio
		if p.Winner != want || pres.NumColors != solo[want].NumColors {
			t.Fatalf("round %d: winner %d with %d colors, want entrant %d with %d",
				round, p.Winner, pres.NumColors, want, solo[want].NumColors)
		}
		if !slices.Equal(pres.Colors, solo[want].Colors) {
			t.Fatalf("round %d: the winning coloring differs from entrant %d's lone run", round, want)
		}
		if !p.Entrants[1].Cancelled {
			t.Errorf("round %d: the fallback racer finished with %d colors", round, p.Entrants[1].Colors)
		}
		for i, e := range p.Entrants {
			if !e.Cancelled && e.Colors != solo[i].NumColors {
				t.Errorf("round %d: entrant %d finished with %d colors, alone %d",
					round, i, e.Colors, solo[i].NumColors)
			}
		}
		t.Logf("round %d: entrant %d won with %d colors, %d cancelled",
			round, p.Winner, pres.NumColors, p.CancelledEntrants)
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
