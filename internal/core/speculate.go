// The shard loop of the streaming engine, and its speculative groups.
// streamShards runs every stream (streamRun in stream.go sets it up) in
// groups of up to S shards. A group of one shard is the plain stream: the
// unit runs on the engine itself. A group of S > 1 shards colors
// concurrently against the same frozen frontier, then repairs the
// cross-shard collisions the speculation ignored. Each lane runs a full
// staged unit over its own range with lane-local resources (arena, builder,
// child tracker) and the per-(Seed, start) unit RNG a one-shard group would
// have used, writing colors only into its own disjoint range — lanes never
// read each other, so the group's outcome is deterministic regardless of
// scheduling. Repair is canonical: lane by lane in ascending order, the
// frozen-frontier scan (the fixed-color pass's own, list size 1: every
// vertex's single "candidate" is the color it speculated) detects the
// vertices whose color collides with an adjacent vertex finalized before
// their lane, and one recolor unit moves exactly that loser set against the
// frozen remainder — stuck losers take fresh singletons above the ceiling,
// in ascending order. The coloring is proper and deterministic per seed but
// not bit-identical to one-shard groups: later lanes could not see earlier
// lanes' colors while speculating. Checkpoints land only at fully repaired
// group boundaries.
package core

import (
	"sync"
	"time"

	"picasso/internal/backend"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// span is one shard's vertex range [start, end).
type span struct{ start, end int }

// streamShards is the one shard loop behind every stream. Each pass takes
// the next group of up to S shards: a group of one shard — every group at
// S = 1, the tail group otherwise — runs as a unit on the engine itself,
// and a wider group speculates its shards on S lanes and repairs the
// collisions. After each group the engine is at a resumable boundary: the
// checkpoint fires, and an auto-derived shard is resized from what the
// group measured.
func (e *engine) streamShards(baseline int64, S int) (*Result, error) {
	var sp *speculation
	if S > 1 {
		var err error
		if sp, err = e.newSpeculation(S); err != nil {
			e.abort()
			return nil, err
		}
	}
	spans := make([]span, 0, S)
	for e.nextStart < e.n {
		peakBefore := e.tr.Peak()
		hadFrontier := e.fixedEnd > 0
		spans = spans[:0]
		for from := e.nextStart; len(spans) < S && from < e.n; {
			to := min(from+e.shard, e.n)
			spans = append(spans, span{from, to})
			from = to
		}
		var used int64
		var err error
		if len(spans) == 1 {
			e.initUnit(spans[0].start, spans[0].end)
			err = e.runUnit()
		} else {
			used, err = e.speculate(sp, spans)
		}
		if err != nil {
			e.abort()
			return nil, err
		}
		end := spans[len(spans)-1].end
		e.fixedEnd, e.nextStart = end, end
		e.shardIdx += len(spans)
		e.res.Shards = e.shardIdx
		if e.opts.Checkpoint != nil {
			e.opts.Checkpoint(e.snapshot())
		}
		// Resize only auto-derived shards: an explicit ShardSize is a
		// contract (equivalence tests, benchmarks sweep it), so a budget
		// crossing is reported, not silently repaired. A one-shard group's
		// own bytes are the run's new peak above baseline.
		if e.opts.ShardSize == 0 {
			peak, lanes := e.tr.Peak(), S
			if len(spans) == 1 {
				lanes = 1
				if peak > peakBefore {
					used = max(peak-baseline, 1)
				}
			}
			e.shard = nextShard(e.shard, spans[0].end-spans[0].start, used,
				e.opts.MemoryBudgetBytes, baseline, peak, peakBefore, hadFrontier, lanes)
		}
	}
	if sp != nil && sp.total > 0 {
		e.res.OverlapRatio = float64(sp.hidden) / float64(sp.total)
	}
	return e.finish(), nil
}

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

// speculation is a stream's S lanes — lane 0 on the engine's own arena and
// builder — with the Options their units share, and the lane time summed
// over every group and the part of it hidden behind a longer lane.
type speculation struct {
	lanes         []*lane
	opts          Options
	total, hidden time.Duration
}

// newSpeculation builds S lanes. Never called for injected builders
// (Options.streamLanes forces those to one lane), so the engine's backend
// configuration can always build another; the underlying device handles are
// shared and are safe for concurrent builders. Lane units share Options but
// not the observer: Progress is serialized (lanes fire concurrently) and
// Checkpoint withheld — mid-group colors are not yet repaired, so no lane
// boundary is resumable.
func (e *engine) newSpeculation(S int) (*speculation, error) {
	sp := &speculation{lanes: []*lane{{ar: e.ar, bld: e.builder, tr: e.tr.Child()}}, opts: *e.opts}
	for len(sp.lanes) < S {
		ar := NewArena()
		bld, err := e.opts.newBuilder(ar)
		if err != nil {
			return nil, err
		}
		sp.lanes = append(sp.lanes, &lane{ar: ar, bld: bld, tr: e.tr.Child()})
	}
	sp.opts.Checkpoint = nil
	sp.opts.Progress = serialized(e.opts.Progress)
	return sp, nil
}

// serialized wraps p so that concurrent callers — speculative lanes,
// portfolio racers — invoke it one at a time. nil stays nil.
func serialized(p func(IterStats)) func(IterStats) {
	if p == nil {
		return nil
	}
	var mu sync.Mutex
	return func(st IterStats) {
		mu.Lock()
		defer mu.Unlock()
		p(st)
	}
}

// ownColorLists adapts one lane's finished colors to the backend.Lists
// interface with list size 1: the repair detection asks, per vertex, "is
// your own color held by an adjacent finalized vertex" — the same question
// the fixed-color pass answers for candidates, so the same scan serves.
type ownColorLists struct {
	cols []int32
	P    int
}

func (l ownColorLists) Len() int           { return len(l.cols) }
func (l ownColorLists) ListSize() int      { return 1 }
func (l ownColorLists) Palette() int       { return l.P }
func (l ownColorLists) List(i int) []int32 { return l.cols[i : i+1] }
func (l ownColorLists) Bytes() int64       { return int64(len(l.cols)) * 4 }

// speculate colors a group of shards concurrently, one lane each, then
// merges the lanes in lane order — deterministic, every lane is — and
// repairs them lane by lane. It returns the largest lane child's peak: one
// unit's own bytes, never inflated by a neighbor in flight.
func (e *engine) speculate(sp *speculation, spans []span) (int64, error) {
	groupStart := spans[0].start
	engines := make([]*engine, len(spans))
	errs := make([]error, len(spans))
	durs := make([]time.Duration, len(spans))
	var wg sync.WaitGroup
	for j, s := range spans {
		ln := sp.lanes[j]
		ln.tr.ResetPeak()
		pe := &engine{
			ctx: e.ctx, o: e.o, opts: &sp.opts, ar: ln.ar,
			tr: ln.tr, builder: ln.bld,
			res: &Result{}, colors: e.colors, n: e.n,
			streamed: true, fixedEnd: groupStart,
			shardIdx: e.shardIdx + j, ceil: e.ceil,
		}
		engines[j] = pe
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			pe.initUnit(s.start, s.end)
			errs[j] = pe.runUnit()
			durs[j] = time.Since(t0)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum, longest time.Duration
	for _, d := range durs {
		sum += d
		longest = max(longest, d)
	}
	sp.total += sum
	sp.hidden += sum - longest

	// The ceiling merges first: repair detection buckets by color below it.
	var used int64
	for j, pe := range engines {
		e.ceil = max(e.ceil, pe.ceil)
		for _, st := range pe.res.Iters {
			e.res.record(st)
		}
		e.res.Fallback = e.res.Fallback || pe.res.Fallback
		used = max(used, sp.lanes[j].tr.Peak())
	}

	// Repair, canonical order: lane j against everything finalized in
	// [groupStart, start_j). Lane 0 never loses — nothing in the group
	// precedes it.
	groupBase := e.shardIdx
	for j := 1; j < len(spans); j++ {
		e.shardIdx = groupBase + j
		if err := e.repair(groupStart, spans[j]); err != nil {
			return 0, err
		}
	}
	e.shardIdx = groupBase
	// Leave the cursors where a one-shard group would: the group's last
	// unit range, so the boundary snapshot is Resumable.
	last := spans[len(spans)-1]
	e.start, e.end = last.start, last.end
	e.active = e.active[:0]
	return used, nil
}

// repair settles lane s against the colors finalized in [groupStart,
// s.start). The frozen-frontier scan finds the lane's losers — ascending,
// the canonical repair order — and one recolor unit moves them below the
// ceiling against the frozen remainder; stuck losers take fresh singletons
// above it. The scan's mask (one slot per lane vertex) is charged while it
// lives, so detection memory follows the shard, not the group.
func (e *engine) repair(groupStart int, s span) error {
	m := s.end - s.start
	mask := e.ar.forbidBuf(m)
	release := e.tr.Scoped(int64(m))
	lists := ownColorLists{cols: e.colors[s.start:s.end], P: int(e.ceil)}
	tested, err := e.scanFrontier(newCrossOracle(e.o, nil, s.start), lists, groupStart, s.start, m, 0, mask)
	e.res.FixedPairsTested += tested
	losers := e.ar.losersBuf()
	for i, lost := range mask {
		if lost {
			losers = append(losers, int32(s.start+i))
		}
	}
	e.ar.retainLosers(losers)
	release()
	if err != nil || len(losers) == 0 {
		return err
	}
	e.res.SpeculativeConflicts += len(losers)
	for _, v := range losers {
		e.colors[v] = graph.Uncolored
	}
	ceil0 := e.ceil
	e.fixedEnd = s.end
	// Repair randomness lives at 2n+start: disjoint from both the shard
	// domain [0, n) and refinement's [n, 2n).
	if err := e.recolor(losers, e.ceil, 2*e.n+s.start); err != nil {
		return err
	}
	for _, v := range losers {
		if e.colors[v] == graph.Uncolored {
			// Stuck: a fresh singleton above the ceiling, ascending — proper
			// by construction, deterministic by order.
			e.setColor(int(v), e.ceil)
		} else if e.colors[v] < ceil0 {
			e.res.RepairRecolors++
		}
	}
	return nil
}
