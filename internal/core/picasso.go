package core

import (
	"context"
	"time"

	"picasso/internal/graph"
)

// IterStats records one iteration of Algorithm 1.
type IterStats struct {
	Iteration        int           // ℓ (1-based; per shard in streamed runs)
	Shard            int           // 1-based shard ordinal (0 for one-shot runs)
	ActiveVertices   int           // |V| entering the iteration
	Palette          int           // Pℓ
	ListSize         int           // Lℓ
	ConflictVertices int           // |Vc|
	ConflictEdges    int64         // |Ec|
	PairsTested      int64         // candidate pairs the build examined (vs m(m−1)/2 all-pairs)
	FixedPairsTested int64         // cross-frontier adjacency tests of the streaming fixed-color pass, each slot's up to its first adjacent frozen vertex
	Unconflicted     int           // vertices colored directly (line 8)
	Colored          int           // total vertices colored this iteration
	Failed           int           // |Vu| carried to the next iteration (unit-local)
	Uncolored        int           // vertices still uncolored across the whole input (= Failed for one-shot runs; adds unreached shards when streaming)
	CSROnDevice      bool          // Alg. 3 branch taken (GPU runs only)
	DevicePeakBytes  int64         // device peak during construction
	AssignTime       time.Duration // list assignment (line 6)
	BuildTime        time.Duration // conflict-graph construction + fixed-color pass (line 7)
	ColorTime        time.Duration // lines 8–9
}

// Result is the outcome of a Picasso run.
type Result struct {
	Colors    graph.Coloring // proper coloring of the input oracle (refined, when Refine ran)
	NumColors int            // distinct colors used
	Iters     []IterStats
	// TotalConflictEdges sums |Ec| over iterations; MaxConflictEdges is the
	// per-iteration maximum (the numerator of the paper's "Maximum
	// Conflicting Edge percentage").
	TotalConflictEdges int64
	MaxConflictEdges   int64
	// TotalPairsTested sums the candidate pairs the conflict builds
	// examined — the work the palette-bucket kernel actually spent, versus
	// the Σ m(m−1)/2 pair tests of an all-pairs scan.
	TotalPairsTested int64
	// FixedPairsTested sums the cross-frontier adjacency tests the
	// streaming fixed-color pass spent pruning shard candidates against
	// already-fixed colors (0 for one-shot runs); a list slot's tests stop
	// at its first adjacent frozen vertex. A speculative run also
	// adds the scans that detect cross-shard collisions for repair; those
	// belong to no iteration, so there Σ IterStats.FixedPairsTested falls
	// short of this total.
	FixedPairsTested int64
	// Shards counts the completed stream units (0 for one-shot runs).
	Shards int
	// ResumedShards counts the stream units restored from a RunState
	// checkpoint instead of being recolored (0 for fresh runs): the work a
	// crash would otherwise have thrown away.
	ResumedShards int
	// OverlapRatio is the fraction of a speculative run's summed lane time
	// hidden behind a longer concurrent lane — per group, the lanes' total
	// minus the longest lane — and 0 for runs that never speculated.
	OverlapRatio float64
	// SpeculativeConflicts counts vertices that lost a cross-shard collision
	// between speculatively colored shards and were sent to repair.
	SpeculativeConflicts int
	// RepairRecolors counts the losers the repair pass recolored below the
	// group ceiling (the rest were finished with fresh singleton colors).
	RepairRecolors int
	// Fallback reports that MaxIterations was hit and the remaining
	// vertices were finished with fresh singleton colors.
	Fallback bool
	// BudgetExceeded reports that the tracked peak crossed the configured
	// MemoryBudgetBytes at some point. The run still completes — the
	// streaming engine degrades its shard size instead of failing — but the
	// violation is never silent.
	BudgetExceeded bool
	// Timing breakdown (the components of the paper's Fig. 3).
	AssignTime, BuildTime, ColorTime, TotalTime time.Duration
	// HostPeakBytes is the tracker's peak if one was supplied.
	HostPeakBytes int64
	// Refine records the refinement pass when Options.Refine ran (nil
	// otherwise); Colors and NumColors then hold the refined coloring.
	Refine *RefineStats
	// Portfolio records the race when Options.Portfolio ran (nil
	// otherwise); the coloring-phase statistics are then the winning
	// entrant's.
	Portfolio *PortfolioStats
}

// Run colors the oracle under the schedule Options describes and returns a
// proper coloring of all n vertices. The graph is consulted only through
// o.HasEdge — it is never materialized — and ctx is honored at every stage
// boundary of the engine (list assignment, conflict construction, conflict
// coloring, compaction) and inside the conflict builders, so a cancelled
// run returns ctx's error within one stage. All iteration-scoped buffers are
// drawn from the run's arena (Options.Arena, or a private one), so only the
// returned Result outlives the call.
//
// The schedule fields pick the phases:
//   - none set: Algorithm 1 over the whole vertex set as one unit;
//   - Stream: shard by shard against the frozen prefix (stream.go);
//   - Frozen: only the vertices past the frozen prefix (the append);
//   - Resume: the rest of a checkpointed streamed run;
//   - Portfolio: a race of entrant configurations (portfolio.go), streamed
//     when Stream is set and one-shot otherwise (every one-shot entrant runs
//     to completion);
//   - Refine: then a refinement pass over the coloring — or over Frozen
//     alone when it covers all n vertices (refine.go).
//
// Frozen, Resume and Portfolio exclude one another (a *ScheduleError).
// Result.Colors, NumColors, HostPeakBytes and BudgetExceeded cover the whole
// call; the other statistics describe the coloring phase, and Result.Refine
// and Result.Portfolio are set exactly when those phases ran.
func Run(ctx context.Context, o graph.Oracle, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.checkSchedule(o.NumVertices()); err != nil {
		return nil, err
	}
	if opts.Portfolio != nil {
		// Every entrant (and the refinement) validates its own Options.
		return portfolio(ctx, o, opts)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch {
	case opts.Frozen != nil && opts.Refine != nil:
		res = &Result{Colors: opts.Frozen} // the refine input; nothing to color
	case opts.Stream || opts.Frozen != nil || opts.Resume != nil:
		res, err = streamRun(ctx, o, &opts)
	default:
		res, err = colorOneShot(ctx, o, &opts)
	}
	if err != nil || opts.Refine == nil {
		return res, err
	}
	return refineAfter(ctx, o, res, opts)
}

// colorOneShot runs Algorithm 1 over the whole vertex set as one unit.
func colorOneShot(ctx context.Context, o graph.Oracle, opts *Options) (*Result, error) {
	// Unconditional: 0 disarms, so a budget left on a reused tracker by an
	// earlier run cannot leak into this one's accounting; the peak baseline
	// likewise drops to the caller's still-live bytes, so HostPeakBytes and
	// the budget verdict describe this run, not a predecessor's high water.
	opts.Tracker.SetBudget(opts.MemoryBudgetBytes)
	opts.Tracker.ResetPeak()
	e := newEngine(ctx, o, opts, false)
	e.balanceOnFinish = opts.Variant == VariantEquitable
	e.initUnit(0, e.n)
	if err := e.runUnit(); err != nil {
		e.abort()
		return nil, err
	}
	return e.finish(), nil
}

// refineAfter runs the refinement pass over res's coloring under opts
// (validated) — with Refine.BudgetBytes, when set, as the pass's budget —
// and folds it into res: the refined coloring replaces res's, and the
// run-level memory accounting covers both phases.
func refineAfter(ctx context.Context, o graph.Oracle, res *Result, opts Options) (*Result, error) {
	if b := opts.Refine.BudgetBytes; b > 0 {
		opts.MemoryBudgetBytes = b
		opts.meter()
	}
	st, err := refine(ctx, o, res.Colors, &opts, *opts.Refine)
	if err != nil {
		return nil, err
	}
	res.Refine = st
	res.Colors, res.NumColors = st.Colors, st.ColorsAfter
	res.HostPeakBytes = max(res.HostPeakBytes, st.HostPeakBytes)
	res.BudgetExceeded = res.BudgetExceeded || st.BudgetExceeded
	return res, nil
}

// subViewBytes is the tracker charge for an iteration's compacted sub-view:
// the view's vertex-data bytes when the oracle was compacted, 0 otherwise
// (the input oracle's own storage is not an iteration-scoped structure, and
// a shard range view shares the input's slab).
func subViewBytes(eo edgeOracle) int64 {
	if !eo.compacted {
		return 0
	}
	return eo.DeviceBytes()
}
