// Portfolio racing: run N entrant configurations of the same coloring job —
// varying seed, list-coloring strategy, shard size, and pipeline/speculate
// schedule — and keep the best coloring. The engine is deterministic per
// seed, so every entrant's coloring is a pure function of its Options; the
// race only decides how much wall-clock the portfolio spends, never which
// coloring wins.
//
// The race runs in two phases. Phase A runs entrant 0 — always the caller's
// base configuration — alone, and publishes its color count as the initial
// shared bound. Phase B races the remaining entrants concurrently, each on
// its own lane (private arena + builder + memtrack.Child of the portfolio
// root, the same per-lane pattern the pipelined stream uses), with the
// phase-A bound frozen into each entrant as a prune ceiling: candidate slots
// at or above it are forbidden in the fixed-color mask path, concentrating
// every racer on colorings that can still win. Freezing the prune bound per
// entrant is what keeps each entrant deterministic — a live bound would make
// the RNG stream depend on when other entrants finish.
//
// The live bound — the lexicographically least (colors, entrant index) of
// the entrants completed so far — is used only for cancellation: each
// racer's shard-boundary checkpoint computes the distinct colors of its
// frozen prefix (a true lower bound on its final count — frozen colors never
// change) and cancels the entrant's context once even that lower bound
// cannot beat the published best. Cancellation timing is scheduling-
// dependent, but it is winner-invariant: the eventual winner W satisfies
// (prefix_W, idx_W) ≤ (final_W, idx_W) < every other completed entrant's
// (final, idx), so no published bound can ever cancel W — only provable
// losers are cancelled, whenever they are. Selection is therefore
// deterministic for a fixed spec: the winner is the lexicographic minimum of
// (final colors, entrant index) over the entrants' deterministic would-be
// results, tie-broken by index, never by wall-clock.
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
	"sync/atomic"
	"time"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// MaxPortfolioEntrants caps a portfolio race. The cap bounds the packed
// entrant index of the shared bound and keeps an adversarial spec from
// turning one job into an unbounded goroutine fan-out.
const MaxPortfolioEntrants = 64

// entrantIndexBits is the low-bit width of the packed (colors, index) bound:
// index occupies the low bits so an int64 comparison is the lexicographic
// order. 16 bits comfortably hold MaxPortfolioEntrants.
const entrantIndexBits = 16

// packBound packs (colors, entrant index) so that smaller packed values are
// lexicographically better colorings. colors is offset by one so a published
// zero-color bound (an empty graph) is distinguishable from "nothing
// published yet" (0).
func packBound(colors, idx int) int64 {
	return int64(colors+1)<<entrantIndexBits | int64(idx)
}

// raceBound is the shared best-so-far (colors, entrant index) bound,
// published lock-free. Offers only ever lower it (CAS min), so concurrent
// publishes from any interleaving converge on the exact lexicographic
// minimum of everything offered.
type raceBound struct{ v atomic.Int64 }

// offer publishes a completed entrant's (colors, index), keeping the bound
// at the lexicographic minimum seen so far.
func (b *raceBound) offer(colors, idx int) {
	p := packBound(colors, idx)
	for {
		cur := b.v.Load()
		if cur != 0 && cur <= p {
			return
		}
		if b.v.CompareAndSwap(cur, p) {
			return
		}
	}
}

// best returns the published bound; ok is false while nothing has completed.
func (b *raceBound) best() (colors, idx int, ok bool) {
	cur := b.v.Load()
	if cur == 0 {
		return 0, 0, false
	}
	return int(cur>>entrantIndexBits) - 1, int(cur & (1<<entrantIndexBits - 1)), true
}

// beaten reports whether an entrant whose final result provably cannot be
// lexicographically below (colors, idx) has already lost to the published
// bound — the cancellation test.
func (b *raceBound) beaten(colors, idx int) bool {
	cur := b.v.Load()
	return cur != 0 && packBound(colors, idx) >= cur
}

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
// one-shot otherwise — the measurement mode, which has no checkpoints to
// cancel at and so needs DisableBound. The winner is refined when the base
// sets Refine.
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
	// DisableBound turns off pruning and cancellation: every entrant runs to
	// completion and is measured — the mode for sweeps whose objective is not
	// the color count alone (Tune's β-weighted colors + conflict work).
	DisableBound bool
}

// EntrantStats describes one entrant's outcome: its distinguishing knobs and
// what its run did. A cancelled entrant reports zero Colors — it never
// finished — plus the shard count at which the shared bound retired it.
type EntrantStats struct {
	Index     int
	Name      string
	Seed      int64
	Strategy  ListStrategy
	ShardSize int // 0 = budget-derived
	Pipeline  bool
	Speculate int

	Colors           int   // final color count (0 when cancelled)
	Shards           int   // completed stream units
	MaxConflictEdges int64 // per-iteration conflict-edge maximum
	BoundPrunes      int64 // candidate slots the shared bound forbade
	Cancelled        bool  // retired by the shared bound
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
	// Bound is the phase-A color count the racers pruned against (0 when the
	// bound was disabled).
	Bound int
	// CancelledEntrants and BoundPrunes aggregate the race: entrants retired
	// by the shared bound, and candidate slots it forbade across all lanes.
	CancelledEntrants int
	BoundPrunes       int64
	// TimeToBest is the wall-clock from race start until the winning
	// coloring existed (before refinement) — the portfolio's quality-latency
	// metric.
	TimeToBest time.Duration
}

// DefaultVariants derives n entrant configurations from a base Options.
// Entrant 0 is the base itself — the phase-A baseline, bit-identical to the
// single run the spec would otherwise have made. Later entrants perturb the
// seed and rotate through the list-coloring strategies, shard sizes (halved
// every other entrant when the base fixes one), and the pipeline/speculate
// schedules, purely as a function of the index — the same spec always races
// the same field.
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
		v.PipelineShards = i%3 == 2
		if i%5 == 4 {
			v.Speculate = 2
			v.PipelineShards = false
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
	switch {
	case v.Speculate >= 2:
		name += fmt.Sprintf(" spec=%d", v.Speculate)
	case v.PipelineShards:
		name += " pipe"
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
		v := &variants[i]
		stats[i] = EntrantStats{
			Index: i, Name: entrantName(v), Seed: v.Seed, Strategy: v.Strategy,
			ShardSize: v.ShardSize, Pipeline: v.PipelineShards, Speculate: v.Speculate,
		}
	}

	t0 := time.Now()
	var bound raceBound
	var winMu sync.Mutex
	winKey := int64(0) // 0 = none yet (same sentinel as raceBound)
	var winRes *Result
	winner := 0
	var timeToBest time.Duration
	record := func(idx int, res *Result) {
		key := packBound(res.NumColors, idx)
		winMu.Lock()
		if winKey == 0 || key < winKey {
			winKey, winRes, winner = key, res, idx
			timeToBest = time.Since(t0)
		}
		winMu.Unlock()
	}

	// runEntrant executes entrant i with its lane resources and the race
	// hooks armed; pruneTo > 0 freezes that prune ceiling into the run.
	runEntrant := func(ectx context.Context, cancel context.CancelFunc, i int, budget int64, pruneTo int) (*Result, error) {
		eopts := variants[i]
		eopts.Tracker = root.Child()
		eopts.MemoryBudgetBytes = budget
		eopts.Progress = serialProgress
		eopts.Checkpoint = nil
		if i > 0 {
			// Racers run concurrently: a lane cannot share the base arena or
			// an injected builder instance, so each derives private ones.
			eopts.Arena = nil
			eopts.Builder = nil
		}
		if pruneTo > 0 {
			eopts.pruneBound = int32(pruneTo)
		}
		st := &stats[i]
		if !popts.DisableBound && i > 0 {
			eopts.Checkpoint = func(snap RunState) {
				if st.Cancelled {
					return
				}
				if lower := distinctPrefix(&snap); bound.beaten(lower, i) {
					st.Cancelled = true
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
			if st.Cancelled && ectx.Err() != nil && ctx.Err() == nil {
				// Our own bound cancelled it: a retired loser, not a failure.
				return nil, nil
			}
			return nil, err
		}
		st.Colors = res.NumColors
		st.Shards = res.Shards
		st.MaxConflictEdges = res.MaxConflictEdges
		st.BoundPrunes = res.BoundPrunes
		bound.offer(res.NumColors, i)
		record(i, res)
		return res, nil
	}

	// Phase A: the baseline entrant alone, under the full budget — its count
	// is the bound every racer prunes against.
	ctx0, cancel0 := context.WithCancel(ctx)
	res0, err := runEntrant(ctx0, cancel0, 0, opts.MemoryBudgetBytes, 0)
	cancel0()
	if err != nil {
		return nil, err
	}
	pruneTo := 0
	if !popts.DisableBound {
		pruneTo = res0.NumColors
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
			ectx, cancel := context.WithCancel(ctx)
			defer cancel()
			_, errs[i] = runEntrant(ectx, cancel, i, share, pruneTo)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}

	race := &PortfolioStats{
		Winner: winner, Entrants: stats, Bound: pruneTo, TimeToBest: timeToBest,
	}
	for i := range stats {
		if stats[i].Cancelled {
			race.CancelledEntrants++
		}
		race.BoundPrunes += stats[i].BoundPrunes
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
