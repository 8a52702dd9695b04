// The staged engine behind Run. Algorithm 1's loop is decomposed into four
// explicit stages per iteration —
// assign (candidate lists), build (conflict subgraph + fixed-color pass),
// color (unconflicted + list coloring), compact (next active set) — with a
// cancellation check between stages and a serializable RunState snapshot at
// every safe boundary. One engine "unit" is the whole vertex set for a
// one-shot run, or one shard for a streamed run (stream.go); everything the
// two modes share lives here.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"picasso/internal/backend"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// runStateVersion guards RunState's serialized layout.
const runStateVersion = 1

// RunState is a serializable snapshot of a run at a stage boundary: the
// partial coloring, the active ids still owed a color in the current unit,
// and the engine's palette/shard cursors. Snapshots own their slices (they
// never alias engine buffers) and marshal cleanly as JSON. A snapshot taken
// at a shard boundary of a streamed run — Resumable() reports it — can be
// handed back as Options.Resume, with the same oracle and Options, to
// continue the run deterministically: shard unit randomness is derived from (Seed, shard
// start), so a resumed run colors exactly as the uninterrupted one would
// have.
type RunState struct {
	Version   int  `json:"version"`
	N         int  `json:"n"`          // input vertex count
	Streamed  bool `json:"streamed"`   // produced by a streamed run
	Shard     int  `json:"shard"`      // shard size in effect (streamed)
	Shards    int  `json:"shards"`     // completed shards
	NextStart int  `json:"next_start"` // first vertex of the next shard
	Start     int  `json:"start"`      // current unit's vertex range
	End       int  `json:"end"`
	Iteration int  `json:"iteration"` // completed iterations in the unit
	// Base is the current unit's palette offset; Ceil is one past the
	// largest color assigned anywhere (the fallback allocator's floor).
	Base int32 `json:"base"`
	Ceil int32 `json:"ceil"`
	// Fallback and BudgetExceeded mirror the Result flags accumulated so
	// far, so a resumed run keeps reporting them.
	Fallback       bool `json:"fallback,omitempty"`
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
	// Active holds the global ids still uncolored in the current unit
	// (empty exactly at unit boundaries); Colors is the partial coloring,
	// -1 = uncolored.
	Active []int32 `json:"active,omitempty"`
	Colors []int32 `json:"colors"`
}

// Resumable reports whether the snapshot sits at a boundary Options.Resume
// accepts: a streamed run between shards — no unit in flight, and the
// finished unit registered into the frontier (a final-iteration snapshot of
// a still-open unit has an empty Active too, but its NextStart still points
// at the unit's own start).
func (s *RunState) Resumable() bool {
	return s.Streamed && len(s.Active) == 0 && s.NextStart == s.End
}

// validate rejects snapshots that cannot continue a run over an n-vertex
// oracle.
func (s *RunState) validate(n int) error {
	switch {
	case s.Version != runStateVersion:
		return fmt.Errorf("core: run state version %d, want %d", s.Version, runStateVersion)
	case s.N != n || len(s.Colors) != n:
		return fmt.Errorf("core: run state for %d vertices (%d colors), oracle has %d",
			s.N, len(s.Colors), n)
	case !s.Resumable():
		return fmt.Errorf("core: run state is not at a resumable shard boundary")
	case s.NextStart < 0 || s.NextStart > n:
		return fmt.Errorf("core: run state next_start %d outside [0, %d]", s.NextStart, n)
	}
	for v := 0; v < s.NextStart; v++ {
		if s.Colors[v] == graph.Uncolored {
			return fmt.Errorf("core: run state frontier vertex %d uncolored", v)
		}
	}
	return nil
}

// engine is the staged execution state of one run. tr is the run's tracker:
// every charge, the peak and the budget verdict live there (a speculative
// lane's engine gets the lane's child tracker). builder is the conflict
// builder the engine's units build with.
type engine struct {
	ctx     context.Context
	o       graph.Oracle
	opts    *Options
	ar      *Arena
	tr      *memtrack.Tracker
	builder backend.ConflictBuilder
	res     *Result

	colors graph.Coloring
	n      int
	tStart time.Time

	// Current unit: [start, end) globally, active ids still uncolored.
	start, end  int
	active      []int32
	activeBytes int64
	base        int32
	iter        int
	rng         *rand.Rand

	// Streaming state: vertices [0, fixedEnd) are colored and frozen; ceil
	// is one past the largest color assigned anywhere (fallback floor);
	// priorExceeded carries a resumed checkpoint's budget-violation flag.
	streamed      bool
	fixedEnd      int
	nextStart     int
	shard         int
	shardIdx      int
	ceil          int32
	priorExceeded bool

	// Refinement state (refine.go): when refineCeil > 0 the unit recolors an
	// arbitrary vertex subset against the frozen rest of the coloring with
	// the palette pinned to the existing colors [0, refineCeil) — one shared
	// window every iteration (no per-iteration palette advance) and no
	// singleton fallback (vertices that cannot move stay uncolored for the
	// driver to restore, so a stuck vertex is a no-op, never improper).
	refineCeil int32

	// Equitable variant state (equitable.go): bal biases candidate picks
	// toward the smallest class (nil outside the variant, rebuilt per
	// unit); balanceOnFinish runs the post-pass rebalance in finish —
	// set for one-shot and streamed runs, never for appends (the frozen
	// prefix must stay bit-identical).
	bal             *classBalance
	balanceOnFinish bool
}

// newEngine charges the persistent color array and prepares a run. opts
// must already be validated.
func newEngine(ctx context.Context, o graph.Oracle, opts *Options, streamed bool) *engine {
	n := o.NumVertices()
	e := &engine{
		ctx: ctx, o: o, opts: opts, ar: opts.Arena,
		tr: opts.Tracker, builder: opts.Builder,
		n: n, streamed: streamed, tStart: time.Now(),
		colors: graph.NewColoring(n),
	}
	e.res = &Result{Colors: e.colors}
	e.tr.Alloc(int64(n) * 4) // the persistent color array
	if !streamed {
		e.rng = rand.New(rand.NewSource(opts.Seed))
	}
	return e
}

// newUnitRNG builds the deterministic per-unit RNG for key k (a shard's
// first vertex, or n+round for refinement rounds — the domains are
// disjoint, so a refinement pass never replays a shard's random stream).
func newUnitRNG(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(unitSeed(seed, k)))
}

// unitSeed derives a shard unit's RNG seed from the run seed and the
// shard's first vertex (splitmix64), so a unit colors identically whether
// it runs in sequence or after a checkpoint resume.
func unitSeed(seed int64, start int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(start+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// initUnit arms the engine for one unit: the whole graph for a one-shot
// run, one shard for a streamed run.
func (e *engine) initUnit(start, end int) {
	e.start, e.end = start, end
	m := end - start
	e.active = e.ar.activeBuf(m)
	for i := range e.active {
		e.active[i] = int32(start + i)
	}
	e.activeBytes = int64(m) * 4
	e.tr.Alloc(e.activeBytes)
	e.base = 0
	e.iter = 0
	e.bal = e.newBalance()
	if e.streamed {
		e.rng = newUnitRNG(e.opts.Seed, start)
	}
}

// runUnit iterates the staged loop until the unit's active set drains (or
// the iteration cap triggers the singleton fallback). The active-table
// charge is released either way.
func (e *engine) runUnit() error {
	for len(e.active) > 0 {
		if e.iter >= e.opts.MaxIterations {
			e.fallback()
			break
		}
		before := len(e.active)
		if err := e.iterate(); err != nil {
			e.tr.Free(e.activeBytes)
			e.activeBytes = 0
			return err
		}
		if e.refineCeil > 0 && len(e.active) == before {
			// A zero-progress refinement iteration: the palette never
			// advances in refine mode, so every further resample faces the
			// same odds that just colored nobody. Stop the unit — the
			// leftovers are restored by the driver and retried in a later
			// round rather than ground against a full iteration budget.
			break
		}
	}
	e.tr.Free(e.activeBytes)
	e.activeBytes = 0
	return nil
}

// iterate runs one iteration of Algorithm 1 as four explicit stages, with a
// cancellation check at every boundary.
func (e *engine) iterate() error {
	if err := backend.Cancelled(e.ctx); err != nil {
		return err
	}
	e.iter++
	m := len(e.active)
	P := e.opts.paletteFor(m)
	if e.refineCeil > 0 {
		// Refinement recolors into the *existing* palette: every candidate
		// list samples from all colors below the ceiling, so a moved vertex
		// can land in any surviving class (P may exceed m — the usual
		// fraction-of-active clamp does not apply).
		P = int(e.refineCeil)
	}
	L := e.opts.listSizeFor(m, P)
	st := IterStats{Iteration: e.iter, ActiveVertices: m, Palette: P, ListSize: L}
	if e.streamed {
		st.Shard = e.shardIdx + 1
	}

	// Stage 1 — assign: random candidate lists (line 6).
	t0 := time.Now()
	cl := assignRandomLists(m, P, L, e.rng, e.ar)
	st.AssignTime = time.Since(t0)
	listRelease := e.tr.Scoped(cl.Bytes())
	if err := backend.Cancelled(e.ctx); err != nil {
		listRelease()
		return err
	}

	// Stage 2 — build: the conflict subgraph via the configured backend
	// (line 7), then — streamed units only — the fixed-color pass pruning
	// candidates against the frozen frontier. The iteration-local view is a
	// zero-cost identity/range view on first iterations and a compacted
	// sub-view (charged while it lives) afterwards.
	t1 := time.Now()
	eo := e.edgeView()
	subRelease := e.tr.Scoped(subViewBytes(eo))
	conf, bst, err := e.builder.Build(e.ctx, eo, cl, e.tr)
	subRelease()
	if err != nil {
		listRelease()
		return fmt.Errorf("core: iteration %d: %w", e.iter, err)
	}
	// release drops the charges the iteration holds until its color stage
	// is done: the forbidden mask (once armed), the lists and the builder's
	// host bytes.
	var forbidden []bool
	maskRelease := func() {}
	release := func() {
		maskRelease()
		listRelease()
		e.tr.Free(bst.HostBytes)
	}
	if e.streamed && e.fixedEnd > 0 {
		forbidden = e.ar.forbidBuf(m * L)
		maskRelease = e.tr.Scoped(int64(m * L))
		// The frontier is chunked by the unit range — by the moved set for a
		// recolor unit, which spans [0, n) while its live memory must follow
		// the active vertices.
		chunk := e.end - e.start
		if e.refineCeil > 0 {
			chunk = m
		}
		var err error
		st.FixedPairsTested, err = e.scanFrontier(newCrossOracle(e.o, e.active, 0), cl, 0, e.fixedEnd, chunk, e.base, forbidden)
		if err != nil {
			release()
			return err
		}
	}
	st.BuildTime = time.Since(t1)
	st.ConflictEdges = conf.Edges
	st.PairsTested = bst.PairsTested
	st.CSROnDevice = bst.OnDevice
	st.DevicePeakBytes = bst.DevicePeakBytes
	if err := backend.Cancelled(e.ctx); err != nil {
		release()
		return err
	}

	// Stage 3 — color: unconflicted vertices directly, then the conflict
	// graph (lines 8–9), both honoring the forbidden mask.
	t2 := time.Now()
	conflicted := e.ar.conflictedBuf()
	direct := e.ar.directFailedBuf()
	for i := 0; i < m; i++ {
		if conf.G.Degree(i) > 0 {
			conflicted = append(conflicted, int32(i))
			continue
		}
		lst := cl.list(i)
		if forbidden == nil {
			if e.bal != nil {
				c := e.base + lst[e.bal.pickSlot(lst, e.base, nil, 0, e.rng)]
				e.bal.note(c)
				e.setColor(int(e.active[i]), c)
			} else {
				e.setColor(int(e.active[i]), e.base+lst[e.rng.Intn(len(lst))])
			}
			st.Unconflicted++
			continue
		}
		if e.bal != nil {
			// Equitable: among the allowed slots, take the one whose class
			// is currently smallest instead of sampling uniformly.
			k := e.bal.pickSlot(lst, e.base, forbidden, i*L, e.rng)
			if k < 0 {
				direct = append(direct, int32(i))
				continue
			}
			c := e.base + lst[k]
			e.bal.note(c)
			e.setColor(int(e.active[i]), c)
			st.Unconflicted++
			continue
		}
		// Streamed: sample uniformly among the slots the fixed-color pass
		// left allowed; a fully pruned vertex fails to the next iteration.
		allowed := 0
		for k := range lst {
			if !forbidden[i*L+k] {
				allowed++
			}
		}
		if allowed == 0 {
			direct = append(direct, int32(i))
			continue
		}
		pick := e.rng.Intn(allowed)
		for k, c := range lst {
			if forbidden[i*L+k] {
				continue
			}
			if pick == 0 {
				e.setColor(int(e.active[i]), e.base+c)
				break
			}
			pick--
		}
		st.Unconflicted++
	}
	e.ar.retainConflicted(conflicted)
	st.ConflictVertices = len(conflicted)

	var lc *listColorResult
	if e.opts.Strategy == DynamicBuckets {
		lc = colorConflictDynamic(conf.G, cl, conflicted, forbidden, e.bal, e.base, e.rng, e.ar)
	} else {
		lc = colorConflictStatic(conf.G, cl, conflicted, forbidden, e.opts.Strategy, e.bal, e.base, e.rng, e.ar)
	}
	for _, v := range conflicted {
		if c := lc.assign[v]; c != -1 {
			e.setColor(int(e.active[v]), e.base+c)
		}
	}
	failed := append(lc.failed, direct...)
	e.ar.retainDirectFailed(direct[:0])
	st.Colored = st.Unconflicted + lc.colored
	st.Failed = len(failed)
	// Globally uncolored: this unit's failures plus every vertex in shards
	// not yet reached (the unit's own colored count is end−start−failed).
	st.Uncolored = e.n - e.end + len(failed)
	st.ColorTime = time.Since(t2)
	release()

	// Stage 4 — compact: recurse on the failed vertices with a fresh
	// palette (lines 11–12), record the iteration, notify observers.
	e.tr.Free(e.activeBytes)
	e.active = e.ar.nextActive(failed, e.active)
	e.activeBytes = int64(len(e.active)) * 4
	e.tr.Alloc(e.activeBytes)
	if e.refineCeil == 0 {
		// Refinement keeps base at 0: failed vertices retry the same bounded
		// palette with fresh random lists instead of advancing to a fresh
		// window (there is nothing above the ceiling to advance into).
		e.base += int32(P)
	}

	e.res.record(st)
	if e.opts.Progress != nil {
		e.opts.Progress(st)
	}
	// No Checkpoint here: snapshots copy the full coloring, so they are
	// taken only at shard boundaries (streamRun), where they are resumable
	// — a per-iteration copy would put O(n) garbage on the steady-state
	// path for observability Progress already provides.
	return nil
}

// record folds one iteration into the Result's totals and appends it to
// Iters. A speculative group replays its lanes' iterations through it.
func (r *Result) record(st IterStats) {
	r.TotalConflictEdges += st.ConflictEdges
	r.TotalPairsTested += st.PairsTested
	r.FixedPairsTested += st.FixedPairsTested
	r.MaxConflictEdges = max(r.MaxConflictEdges, st.ConflictEdges)
	r.AssignTime += st.AssignTime
	r.BuildTime += st.BuildTime
	r.ColorTime += st.ColorTime
	r.Iters = append(r.Iters, st)
}

// edgeView builds the iteration's local adjacency view. A unit's first
// iteration has active exactly [start, end): the whole graph is the
// identity view, a shard of a RangeViewer is a zero-copy slab sub-view.
// Later (or otherwise) iterations compact through SubViewer or map through
// the active table.
func (e *engine) edgeView() edgeOracle {
	if e.iter == 1 && len(e.active) == e.end-e.start {
		if e.start == 0 && e.end == e.n {
			return newEdgeOracle(e.o, e.active, true, e.ar)
		}
		if rv, ok := e.o.(graph.RangeViewer); ok {
			return newRangeEdgeOracle(rv.RangeView(e.start, e.end))
		}
	}
	return newEdgeOracle(e.o, e.active, false, e.ar)
}

// scanFrontier is the frozen-frontier scan shared by the fixed-color pass
// and the speculative repair: it marks mask[i*L+k] when slot k of row i
// carries a color that an adjacent vertex of [lo, hi) already holds inside
// the palette window [base, base+P) (L and P from lists; the color is
// compared palette-local, c − base). Uncolored vertices (−1) fall below
// every window and are skipped. The range is indexed chunk by chunk (chunk
// floored at 4096), so the scan's live memory stays O(chunk) however much
// of the graph is already colored; each chunk's index and staging are
// charged to the tracker while they live. The price of that bound is a
// linear window-filter scan of the range per call (two compares per frozen
// vertex): a per-shard index over all frontier colors would amortize it
// across a shard's iterations but hold O(n) live — exactly what streaming
// exists to avoid. Returns the cross adjacency tests spent.
func (e *engine) scanFrontier(cross crossOracle, lists backend.Lists, lo, hi, chunk int, base int32, mask []bool) (int64, error) {
	P := lists.Palette()
	chunk = max(chunk, 4096)
	var tested int64
	for ; lo < hi; lo += chunk {
		ids, cols := e.ar.fixedBufs()
		for v, end := lo, min(lo+chunk, hi); v < end; v++ {
			if c := e.colors[v] - base; c >= 0 && c < int32(P) {
				ids = append(ids, int32(v))
				cols = append(cols, c)
			}
		}
		e.ar.retainFixed(ids, cols)
		if len(ids) == 0 {
			continue
		}
		fb := backend.NewFixedBucketsIn(e.ar.be, P, ids, cols)
		release := e.tr.Scoped(fb.Bytes() + int64(len(ids))*8)
		tested += fb.Forbid(e.ctx, cross, lists, e.opts.Workers, e.ar.be, mask)
		release()
		if err := backend.Cancelled(e.ctx); err != nil {
			return tested, err
		}
	}
	return tested, nil
}

// fallback finishes the unit's remaining vertices with fresh singleton
// colors (proper by construction). One-shot runs use the historical
// base-offset colors; streamed runs draw from the global ceiling so the
// singletons cannot collide with any frozen color — future shards remain
// safe regardless, since the fixed-color pass prunes against whatever is
// in the colors array.
func (e *engine) fallback() {
	if e.refineCeil > 0 {
		// Refinement has no palette above the ceiling to spill into: the
		// remaining vertices stay uncolored and the driver restores their
		// original colors — a capped round degrades to a partial round, it
		// never mints new colors.
		return
	}
	if e.streamed {
		base := e.ceil
		for i, v := range e.active {
			e.setColor(int(v), base+int32(i))
		}
	} else {
		for i, v := range e.active {
			e.setColor(int(v), e.base+int32(i))
		}
	}
	// Everything is colored now: empty the active set so a shard-boundary
	// snapshot taken after this unit is Resumable and its Active list keeps
	// its documented meaning ("global ids still uncolored") — a fallback
	// shard is a legitimately continuable boundary like any other.
	e.active = e.active[:0]
	e.res.Fallback = true
}

// setColor assigns and keeps the global color ceiling current.
func (e *engine) setColor(v int, c int32) {
	e.colors[v] = c
	if c >= e.ceil {
		e.ceil = c + 1
	}
}

// snapshot captures a RunState; the slices are copies, never engine
// buffers.
func (e *engine) snapshot() RunState {
	return RunState{
		Version:        runStateVersion,
		N:              e.n,
		Streamed:       e.streamed,
		Shard:          e.shard,
		Shards:         e.shardIdx,
		NextStart:      e.nextStart,
		Start:          e.start,
		End:            e.end,
		Iteration:      e.iter,
		Base:           e.base,
		Ceil:           e.ceil,
		Fallback:       e.res.Fallback,
		BudgetExceeded: e.priorExceeded || e.tr.OverBudget(),
		Active:         append([]int32(nil), e.active...),
		Colors:         append([]int32(nil), e.colors...),
	}
}

// finish releases the color-array charge and seals the Result.
func (e *engine) finish() *Result {
	if e.balanceOnFinish {
		balanceColors(e.o, e.colors)
	}
	e.res.NumColors = e.colors.NumColors()
	e.res.TotalTime = time.Since(e.tStart)
	e.res.HostPeakBytes = e.tr.Peak()
	e.res.BudgetExceeded = e.priorExceeded || e.tr.OverBudget()
	e.tr.Free(int64(e.n) * 4)
	return e.res
}

// abort releases the color-array charge of a run that returns an error.
func (e *engine) abort() {
	e.tr.Free(int64(e.n) * 4)
}
