// Portfolio racing: run N entrant configurations of the same coloring job —
// varying seed, list-coloring strategy, shard size, and speculative
// schedule — and keep the best coloring. The engine is deterministic per
// seed, so every entrant's coloring is a pure function of its Options; the
// race only decides how much wall-clock the portfolio spends, never which
// coloring wins.
//
// The race runs in two phases. Phase A runs entrant 0 — always the caller's
// base configuration — alone and records its result as the first winner.
// Phase B races the remaining entrants concurrently, each on its own lane
// (private arena + builder + memtrack.Child of the portfolio root, the same
// per-lane pattern speculative streams use).
//
// The winner record — the lexicographically least (colors, entrant index) of
// the entrants completed so far, kept under one mutex — also retires
// provable losers: each racer's shard-boundary checkpoint computes the
// distinct colors of its frozen prefix (a true lower bound on its final
// count — frozen colors never change) and cancels the entrant's context once
// even that lower bound cannot beat the record. Cancellation timing is
// scheduling-dependent, but it is winner-invariant: the eventual winner W
// satisfies (prefix_W, idx_W) ≤ (final_W, idx_W) < every other completed
// entrant's (final, idx), so no record can ever cancel W — only provable
// losers are cancelled, whenever they are. Selection is therefore
// deterministic for a fixed spec: the winner is the lexicographic minimum of
// (final colors, entrant index) over the entrants' deterministic would-be
// results, tie-broken by index, never by wall-clock. One-shot entrants never
// checkpoint, so a one-shot race runs every entrant to completion.
//
// When Options.Refine is set, the winning coloring is finally fed through
// the refinement pass (refine.go) under the portfolio root tracker, so a
// race ends exactly where a single run with the same Refine would — just
// with a better starting point.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// MaxPortfolioEntrants caps a portfolio race, so an adversarial spec cannot
// turn one job into an unbounded goroutine fan-out.
const MaxPortfolioEntrants = 64

// distinctPrefix counts the distinct colors of a snapshot's frozen frontier
// [0, NextStart): a lower bound on the run's final color count, since frozen
// colors never change and later shards only add.
func distinctPrefix(st *RunState) int {
	if st.Ceil <= 0 {
		return 0
	}
	seen := make([]bool, st.Ceil)
	d := 0
	for _, c := range st.Colors[:st.NextStart] {
		if c >= 0 && !seen[c] {
			seen[c] = true
			d++
		}
	}
	return d
}

// entrantBudget splits the portfolio's total memory budget across the
// racers that hold iteration memory concurrently — the same lanes × footprint
// arithmetic the stream governor applies to its own lanes, one level up. A
// zero total stays zero (no budget).
func entrantBudget(total int64, racers int) int64 {
	if total <= 0 || racers < 1 {
		return 0
	}
	return total / int64(racers)
}

// PortfolioOptions shapes a portfolio race on top of a base Options
// (Options.Portfolio). Entrants stream when the base sets Stream and run
// one-shot otherwise; one-shot entrants have no checkpoints to cancel at, so
// every one of them runs to completion and is measured. The winner is
// refined when the base sets Refine.
type PortfolioOptions struct {
	// Entrants is the total number of entrants including the base
	// configuration (entrant 0); 2..MaxPortfolioEntrants. Ignored when
	// Variants is set.
	Entrants int
	// Variants, when non-empty, is the explicit entrant list (Variants[0] is
	// the phase-A baseline) — the hook Tune uses to race its (P′, α) grid.
	// When empty, DefaultVariants derives Entrants configurations from the
	// base Options.
	Variants []Options
	// MaxConcurrent caps how many phase-B racers run at once (0 = all).
	// The per-racer memory-budget share divides by the realized concurrency.
	MaxConcurrent int
}

// EntrantStats describes one entrant's outcome: its index, a name that
// spells out its distinguishing knobs (seed, strategy, shard size,
// speculation), and what its run did. A cancelled entrant is one the race
// stopped before its last shard, because even its frozen prefix could no
// longer beat the winner record: it reports zero Colors and Shards, plus
// the completed shard count at which it was retired. An entrant that
// finished is never cancelled.
type EntrantStats struct {
	Index int
	Name  string

	Colors           int   // final color count (0 when cancelled)
	Shards           int   // completed stream units (0 when cancelled)
	MaxConflictEdges int64 // per-iteration conflict-edge maximum
	Cancelled        bool  // stopped early as a provable loser
	CancelledAtShard int   // completed shards when cancelled
	Wall             time.Duration
	PeakBytes        int64 // the entrant lane's own peak (child tracker)
}

// PortfolioStats records a race (Result.Portfolio). The Result carrying it
// is the winning entrant's run verbatim except for its run-level
// accounting: HostPeakBytes and BudgetExceeded cover the whole portfolio
// (all lanes combined, plus the refinement pass), because the memory
// promise is a property of the job, not of the winning lane.
type PortfolioStats struct {
	// Winner is the winning entrant's index: the lexicographic minimum of
	// (final colors, index) over completed entrants — deterministic for a
	// fixed spec.
	Winner   int
	Entrants []EntrantStats
	// CancelledEntrants counts the entrants the race stopped early.
	CancelledEntrants int
	// TimeToBest is the wall-clock from race start until the winning
	// coloring existed (before refinement) — the portfolio's quality-latency
	// metric.
	TimeToBest time.Duration
}

// DefaultVariants derives n entrant configurations from a base Options.
// Entrant 0 is the base itself — the phase-A baseline, bit-identical to the
// single run the spec would otherwise have made. Later entrants perturb the
// seed and rotate through the list-coloring strategies, shard sizes (halved
// every other entrant when the base fixes one), and the sequential and
// speculative schedules, purely as a function of the index — the same spec
// always races the same field.
func DefaultVariants(base Options, n int) []Options {
	strategies := [...]ListStrategy{
		DynamicBuckets, DynamicBuckets, StaticLargest, DynamicBuckets,
		StaticRandom, DynamicBuckets, StaticNatural, DynamicBuckets,
	}
	out := make([]Options, n)
	out[0] = base
	for i := 1; i < n; i++ {
		v := base
		v.Seed = base.Seed + int64(i)
		v.Strategy = strategies[i%len(strategies)]
		if base.ShardSize > 0 && i%2 == 0 {
			if half := base.ShardSize / 2; half >= minShard {
				v.ShardSize = half
			}
		}
		if i%5 == 4 {
			v.Speculate = 2
		} else {
			v.Speculate = 0
		}
		out[i] = v
	}
	return out
}

// entrantName labels an entrant for stats and logs from the knobs that
// distinguish it.
func entrantName(v *Options) string {
	name := fmt.Sprintf("seed=%d %s", v.Seed, v.Strategy)
	if v.PaletteSize == 0 && v.PaletteFrac > 0 {
		name = fmt.Sprintf("p=%g a=%g %s", v.PaletteFrac, v.Alpha, name)
	}
	if v.ShardSize > 0 {
		name += fmt.Sprintf(" shard=%d", v.ShardSize)
	}
	if v.Speculate >= 2 {
		name += fmt.Sprintf(" spec=%d", v.Speculate)
	}
	return name
}

// portfolio races entrant configurations of one coloring job and returns the
// deterministic winner, refined when opts.Refine is set (see the package
// comment for the two-phase schedule and the determinism argument). The
// base opts supplies everything the race shares: the oracle-facing knobs
// default every variant, Tracker (or a private root) meters all lanes
// combined, MemoryBudgetBytes is the whole race's budget — phase A runs
// under all of it, phase-B racers split it by their realized concurrency —
// and Progress is forwarded serialized across entrants. Options.Checkpoint
// is NOT forwarded: no portfolio-internal boundary is a resumable state of
// the portfolio job.
func portfolio(ctx context.Context, o graph.Oracle, opts Options) (*Result, error) {
	popts := opts.Portfolio
	variants := popts.Variants
	if len(variants) == 0 {
		if popts.Entrants < 2 {
			return nil, fmt.Errorf("core: portfolio needs at least 2 entrants, got %d", popts.Entrants)
		}
		if popts.Entrants > MaxPortfolioEntrants {
			return nil, fmt.Errorf("core: portfolio entrants %d exceed the cap %d", popts.Entrants, MaxPortfolioEntrants)
		}
		variants = DefaultVariants(opts, popts.Entrants)
	}
	switch {
	case len(variants) < 2:
		return nil, fmt.Errorf("core: portfolio needs at least 2 variants, got %d", len(variants))
	case len(variants) > MaxPortfolioEntrants:
		return nil, fmt.Errorf("core: portfolio variants %d exceed the cap %d", len(variants), MaxPortfolioEntrants)
	}

	root := opts.Tracker
	if root == nil {
		root = &memtrack.Tracker{}
	}
	root.SetBudget(opts.MemoryBudgetBytes)
	root.ResetPeak()

	var progressMu sync.Mutex
	progress := opts.Progress
	serialProgress := progress
	if progress != nil {
		serialProgress = func(st IterStats) {
			progressMu.Lock()
			defer progressMu.Unlock()
			progress(st)
		}
	}

	n := len(variants)
	stats := make([]EntrantStats, n)
	for i := range stats {
		stats[i] = EntrantStats{Index: i, Name: entrantName(&variants[i])}
	}

	t0 := time.Now()
	// The winner record: the lexicographic minimum of (colors, entrant
	// index) over the entrants completed so far. winMu guards it for both
	// the completions and the racers' checkpoint hooks.
	var (
		winMu      sync.Mutex
		winRes     *Result // nil until an entrant completes
		winner     int
		timeToBest time.Duration
	)
	// beats reports whether (colors, idx) is lexicographically below the
	// record; the caller holds winMu.
	beats := func(colors, idx int) bool {
		return winRes == nil || colors < winRes.NumColors || colors == winRes.NumColors && idx < winner
	}

	// runEntrant executes entrant i on its lane resources and records its
	// result; a racer's checkpoint hook retires it once its frozen prefix
	// alone cannot beat the record.
	runEntrant := func(i int, budget int64) error {
		ectx, cancel := context.WithCancel(ctx)
		defer cancel()
		eopts := variants[i]
		eopts.Tracker = root.Child()
		eopts.MemoryBudgetBytes = budget
		eopts.Progress = serialProgress
		eopts.Checkpoint = nil
		st := &stats[i]
		if i > 0 {
			// Racers run concurrently: a lane cannot share the base arena or
			// an injected builder instance, so each derives private ones.
			eopts.Arena = nil
			eopts.Builder = nil
			eopts.Checkpoint = func(snap RunState) {
				lower := distinctPrefix(&snap)
				winMu.Lock()
				lost := !beats(lower, i)
				winMu.Unlock()
				if lost {
					st.CancelledAtShard = snap.Shards
					cancel()
				}
			}
		}
		start := time.Now()
		res, err := runEntrantOpts(ectx, o, &eopts, opts.Stream)
		st.Wall = time.Since(start)
		st.PeakBytes = eopts.Tracker.Peak()
		if err != nil {
			if ectx.Err() != nil && ctx.Err() == nil {
				// The race's own cancellation stopped it: a retired loser,
				// not a failure.
				st.Cancelled = true
				return nil
			}
			return err
		}
		// A hook that fired at the final checkpoint stopped nothing: the
		// entrant finished, so it reports its run and is not cancelled.
		st.CancelledAtShard = 0
		st.Colors = res.NumColors
		st.Shards = res.Shards
		st.MaxConflictEdges = res.MaxConflictEdges
		winMu.Lock()
		if beats(res.NumColors, i) {
			winRes, winner, timeToBest = res, i, time.Since(t0)
		}
		winMu.Unlock()
		return nil
	}

	// Phase A: the baseline entrant alone, under the full budget.
	if err := runEntrant(0, opts.MemoryBudgetBytes); err != nil {
		return nil, err
	}

	// Phase B: race the rest, splitting the budget by realized concurrency.
	racers := n - 1
	concurrent := racers
	if popts.MaxConcurrent > 0 && popts.MaxConcurrent < concurrent {
		concurrent = popts.MaxConcurrent
	}
	share := entrantBudget(opts.MemoryBudgetBytes, concurrent)
	sem := make(chan struct{}, concurrent)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = runEntrant(i, share)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}

	race := &PortfolioStats{Winner: winner, Entrants: stats, TimeToBest: timeToBest}
	for i := range stats {
		if stats[i].Cancelled {
			race.CancelledEntrants++
		}
	}
	// The run-level accounting of the returned Result describes the whole
	// portfolio, not the winning lane (see PortfolioStats).
	winRes.Portfolio = race
	winRes.HostPeakBytes = root.Peak()
	winRes.BudgetExceeded = root.OverBudget()
	if opts.Refine == nil {
		return winRes, nil
	}
	refOpts := opts
	refOpts.Tracker = root
	refOpts.Progress = serialProgress
	refOpts.Checkpoint = nil
	if err := refOpts.validate(); err != nil {
		return nil, err
	}
	return refineAfter(ctx, o, winRes, refOpts)
}

// runEntrantOpts validates one entrant's Options and runs it, streamed or
// one-shot as the race dictates.
func runEntrantOpts(ctx context.Context, o graph.Oracle, opts *Options, streamed bool) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if streamed {
		return streamRun(ctx, o, opts)
	}
	return colorOneShot(ctx, o, opts)
}
