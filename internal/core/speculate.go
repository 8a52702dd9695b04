// Speculative shard execution for the streaming engine: color S shards
// concurrently against the same frozen frontier, then repair the
// cross-shard collisions the speculation ignored. Each lane runs a full
// staged unit over its own range with lane-local resources (arena, builder,
// child tracker) and the per-(Seed, start) unit RNG the sequential stream
// would have used, writing colors only into its own disjoint range — lanes
// never read each other, so the group's outcome is deterministic regardless
// of scheduling. Repair is canonical: lane by lane in ascending order, a
// batched fixed-bucket scan (the fixed-color pass's own kernel, list size
// 1: every vertex's single "candidate" is the color it speculated) detects
// the vertices whose color collides with an adjacent vertex finalized
// before their lane, and the refine machinery recolors exactly that loser
// set against the frozen remainder — stuck losers take fresh singletons
// above the ceiling, in ascending order. The coloring is proper and
// deterministic per seed but not bit-identical to the sequential stream:
// later lanes could not see earlier lanes' colors while speculating.
// Checkpoints land only at fully repaired group boundaries, which are
// exactly as resumable as sequential shard boundaries.
package core

import (
	"sync"
	"time"

	"picasso/internal/backend"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// lane bundles the per-goroutine resources one in-flight stream unit needs:
// a private arena (core + backend pools), a conflict builder bound to that
// arena, and a child tracker that meters the unit's own bytes exactly while
// forwarding every charge to the run's tracker — whose peak and budget
// verdict always cover the lanes combined.
type lane struct {
	ar  *Arena
	bld backend.ConflictBuilder
	tr  *memtrack.Tracker
}

// newLane builds an additional lane from the engine's backend
// configuration. Never called for injected builders (Options.streamLanes
// forces those sequential), so backend.New can always build it; the
// underlying device handles are shared and are safe for concurrent
// builders.
func (e *engine) newLane() (*lane, error) {
	ar := NewArena()
	bld, err := backend.New(e.opts.Backend, backend.Config{
		Workers: e.opts.Workers,
		Device:  e.opts.Device,
		Arena:   ar.backendArena(),
	})
	if err != nil {
		return nil, err
	}
	return &lane{ar: ar, bld: bld, tr: e.tr.Child()}, nil
}

// ownColorLists adapts one lane's finished colors to the backend.Lists
// interface with list size 1: the repair detection asks, per vertex, "is
// your own color held by an adjacent finalized vertex" — the same question
// the fixed-color pass answers for candidates, so the same kernel serves.
type ownColorLists struct {
	cols []int32
	P    int
}

func (l ownColorLists) Len() int           { return len(l.cols) }
func (l ownColorLists) ListSize() int      { return 1 }
func (l ownColorLists) Palette() int       { return l.P }
func (l ownColorLists) List(i int) []int32 { return l.cols[i : i+1] }
func (l ownColorLists) Bytes() int64       { return int64(len(l.cols)) * 4 }

// detectConflicts scans lane range [start, end) against the finalized
// colors of [priorStart, start): it returns the global ids (ascending —
// the canonical repair order) whose color some adjacent finalized vertex
// already holds, plus the cross adjacency tests spent. The prior range is
// indexed chunk by chunk like the fixed-color pass, so detection memory
// follows the shard, not the group.
func (e *engine) detectConflicts(priorStart, start, end int) ([]int32, int64, error) {
	m := end - start
	P := int(e.ceil)
	mask := e.ar.forbidBuf(m) // list size 1: one slot per lane vertex
	defer e.tr.Scoped(int64(m))()
	lists := ownColorLists{cols: e.colors[start:end], P: P}
	cross := newShiftCrossOracle(e.o, start)
	chunk := m
	if chunk < 4096 {
		chunk = 4096
	}
	var tested int64
	for lo := priorStart; lo < start; lo += chunk {
		hi := lo + chunk
		if hi > start {
			hi = start
		}
		ids, cols := e.ar.fixedBufs()
		for v := lo; v < hi; v++ {
			ids = append(ids, int32(v))
			cols = append(cols, e.colors[v])
		}
		e.ar.retainFixed(ids, cols)
		fb := backend.NewFixedBucketsIn(e.ar.be, P, ids, cols)
		release := e.tr.Scoped(fb.Bytes() + int64(len(ids))*8)
		tested += fb.Forbid(e.ctx, cross, lists, e.opts.Workers, e.ar.be, mask)
		release()
		if err := backend.Cancelled(e.ctx); err != nil {
			return nil, tested, err
		}
	}
	losers := e.ar.losersBuf()
	for i := 0; i < m; i++ {
		if mask[i] {
			losers = append(losers, int32(start+i))
		}
	}
	e.ar.retainLosers(losers)
	return losers, tested, nil
}

// streamSpeculative is streamRun's S-lane schedule: groups of up to S
// shards speculate concurrently, then merge (stats and ceiling in lane
// order), then repair lane by lane. A tail group of one shard runs as a
// plain sequential unit.
func (e *engine) streamSpeculative(baseline int64, S int) (*Result, error) {
	lanes := make([]*lane, S)
	lanes[0] = &lane{ar: e.ar, bld: e.builder, tr: e.tr.Child()}
	for i := 1; i < S; i++ {
		ln, err := e.newLane()
		if err != nil {
			e.abort()
			return nil, err
		}
		lanes[i] = ln
	}
	// Lane units share Options but not the observer: Progress is serialized
	// (lanes fire concurrently) and Checkpoint withheld — mid-group colors
	// are not yet repaired, so no lane boundary is resumable.
	laneOpts := *e.opts
	laneOpts.Checkpoint = nil
	if p := e.opts.Progress; p != nil {
		var mu sync.Mutex
		laneOpts.Progress = func(st IterStats) {
			mu.Lock()
			defer mu.Unlock()
			p(st)
		}
	}
	var specTotal, specHidden time.Duration

	type span struct{ start, end int }
	for e.nextStart < e.n {
		groupStart := e.nextStart
		peakBefore := e.tr.Peak()
		hadFrontier := e.fixedEnd > 0
		spans := make([]span, 0, S)
		for from := groupStart; len(spans) < S && from < e.n; {
			to := from + e.shard
			if to > e.n {
				to = e.n
			}
			spans = append(spans, span{from, to})
			from = to
		}
		groupEnd := spans[len(spans)-1].end

		if len(spans) == 1 {
			// The tail shard has nothing to speculate against: run it as the
			// sequential loop would.
			e.initUnit(spans[0].start, spans[0].end)
			if err := e.runUnit(); err != nil {
				e.abort()
				return nil, err
			}
		} else {
			engines := make([]*engine, len(spans))
			errs := make([]error, len(spans))
			durs := make([]time.Duration, len(spans))
			var wg sync.WaitGroup
			for j, s := range spans {
				ln := lanes[j]
				ln.tr.ResetPeak()
				pe := &engine{
					ctx: e.ctx, o: e.o, opts: &laneOpts, ar: ln.ar,
					tr: ln.tr, builder: ln.bld,
					res: &Result{}, colors: e.colors, n: e.n,
					streamed: true, fixedEnd: groupStart,
					shardIdx: e.shardIdx + j, ceil: e.ceil,
				}
				engines[j] = pe
				wg.Add(1)
				go func(j int, pe *engine, s span) {
					defer wg.Done()
					t0 := time.Now()
					pe.initUnit(s.start, s.end)
					errs[j] = pe.runUnit()
					durs[j] = time.Since(t0)
				}(j, pe, s)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					e.abort()
					return nil, err
				}
			}
			var sum, longest time.Duration
			for _, d := range durs {
				sum += d
				if d > longest {
					longest = d
				}
			}
			specTotal += sum
			specHidden += sum - longest

			// Merge in lane order — deterministic, every lane is. The ceiling
			// merges first: repair detection buckets by color below it.
			for _, pe := range engines {
				if pe.ceil > e.ceil {
					e.ceil = pe.ceil
				}
				r := pe.res
				e.res.TotalConflictEdges += r.TotalConflictEdges
				e.res.TotalPairsTested += r.TotalPairsTested
				e.res.FixedPairsTested += r.FixedPairsTested
				e.res.BoundPrunes += r.BoundPrunes
				if r.MaxConflictEdges > e.res.MaxConflictEdges {
					e.res.MaxConflictEdges = r.MaxConflictEdges
				}
				e.res.AssignTime += r.AssignTime
				e.res.BuildTime += r.BuildTime
				e.res.ColorTime += r.ColorTime
				e.res.Iters = append(e.res.Iters, r.Iters...)
				if r.Fallback {
					e.res.Fallback = true
				}
			}

			// Repair, canonical order: lane j against everything finalized in
			// [groupStart, start_j). Lane 0 never loses — nothing in the group
			// precedes it.
			groupBase := e.shardIdx
			for j := 1; j < len(spans); j++ {
				s := spans[j]
				losers, tested, err := e.detectConflicts(groupStart, s.start, s.end)
				e.res.FixedPairsTested += tested
				if err != nil {
					e.abort()
					return nil, err
				}
				if len(losers) == 0 {
					continue
				}
				e.res.SpeculativeConflicts += len(losers)
				for _, v := range losers {
					e.colors[v] = graph.Uncolored
				}
				ceil0 := e.ceil
				e.refineCeil = e.ceil
				e.fixedEnd = s.end
				e.shardIdx = groupBase + j
				// Repair randomness lives at 2n+start: disjoint from both the
				// shard domain [0, n) and refinement's [n, 2n).
				e.initRecolorUnit(losers, 2*e.n+s.start)
				err = e.runUnit()
				e.refineCeil = 0
				if err != nil {
					e.abort()
					return nil, err
				}
				recolored := 0
				for _, v := range losers {
					if e.colors[v] == graph.Uncolored {
						// Stuck: a fresh singleton above the ceiling, ascending
						// — proper by construction, deterministic by order.
						e.setColor(int(v), e.ceil)
					} else if e.colors[v] < ceil0 {
						recolored++
					}
				}
				e.res.RepairRecolors += recolored
			}
			e.shardIdx = groupBase
			// Leave the cursors where the sequential loop would: the group's
			// last unit range, so the boundary snapshot is Resumable.
			e.start, e.end = spans[len(spans)-1].start, groupEnd
			e.active = e.active[:0]
		}

		e.fixedEnd, e.nextStart = groupEnd, groupEnd
		e.shardIdx += len(spans)
		e.res.Shards = e.shardIdx
		if e.opts.Checkpoint != nil {
			e.opts.Checkpoint(e.snapshot())
		}
		if e.opts.ShardSize == 0 && len(spans) > 1 {
			var unitUsed int64
			for j := range spans {
				if p := lanes[j].tr.Peak(); p > unitUsed {
					unitUsed = p
				}
			}
			e.shard = nextShardConcurrent(e.shard, spans[0].end-spans[0].start, unitUsed,
				e.opts.MemoryBudgetBytes, baseline, e.tr.Peak(), peakBefore, hadFrontier, S)
		}
	}
	if specTotal > 0 {
		e.res.OverlapRatio = float64(specHidden) / float64(specTotal)
	}
	return e.finish(), nil
}
