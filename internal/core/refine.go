// Palette refinement: claw colors back from a finished coloring at streamed
// memory cost. Picasso's (P′, α) knobs — and the streaming engine on top of
// them — deliberately accept more colors C in exchange for a bounded
// conflict graph; in the quantum application every color is a measurement
// group, so each eliminated color is a family of circuit executions saved.
// Refine runs the trade in reverse after the fact: each round renumbers the
// coloring so the smallest classes hold the highest color ids, dissolves the
// top classes (smallest first — they are the cheapest to empty), and sends
// their vertices back through the staged engine with the palette pinned to
// the surviving colors [0, ceiling). The rest of the coloring is a frozen
// frontier whose colors are struck from the lists before each conflict
// build (bucket.Index + backend.Forbid). A round indexes that
// frontier once and holds the index for the round (4 bytes per indexed
// vertex plus 8 per color) wherever the budget model fits it beside the
// round — always without a budget — and otherwise scans the frontier in
// chunks; every other live byte follows the moved set, never the graph,
// and the coloring is the same either way. Vertices that cannot move keep
// their old color — a round is a no-op for them, never improper — and
// rounds repeat until no class falls for stallRounds rounds, the round
// cap, or a target C.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"picasso/internal/backend"
	"picasso/internal/graph"
	"picasso/internal/grow"
)

// RefineOptions parameterizes a refinement pass (Options.Refine). The
// coloring knobs themselves (palette fraction, α, seed, backend, workers,
// arena, tracker) ride on the enclosing Options; RefineOptions only shapes
// the rounds and the pass's budget. The zero value of every field means
// "default".
type RefineOptions struct {
	// Rounds caps the number of refinement rounds (0 = 16).
	Rounds int
	// TargetColors stops refinement once the color count is at or below it,
	// and bounds each round so refinement never dissolves past it
	// (0 = refine until convergence).
	TargetColors int
	// BudgetBytes is the pass's own host-memory budget (0 = the run's
	// Options.MemoryBudgetBytes).
	BudgetBytes int64
}

// fill applies defaults and rejects nonsense.
func (r *RefineOptions) fill() error {
	if r.Rounds == 0 {
		r.Rounds = 16
	}
	if r.Rounds < 0 {
		return fmt.Errorf("core: negative refine rounds %d", r.Rounds)
	}
	if r.TargetColors < 0 {
		return fmt.Errorf("core: negative refine target %d", r.TargetColors)
	}
	if r.BudgetBytes < 0 {
		return fmt.Errorf("core: negative refine budget %d", r.BudgetBytes)
	}
	return nil
}

// stallRounds stops refinement after this many consecutive rounds that
// eliminate no class.
const stallRounds = 2

// RefineRound records one refinement round.
type RefineRound struct {
	Round            int   // 1-based
	Ceiling          int   // moved vertices recolor into [0, Ceiling)
	Classes          int   // color classes dissolved this round
	Moved            int   // vertices sent through the engine
	Recolored        int   // moved vertices that found a color under the ceiling
	Stuck            int   // moved vertices restored to their original color
	Eliminated       int   // classes actually removed from the coloring
	ColorsAfter      int   // distinct colors after the round
	Iterations       int   // engine iterations the round spent
	PairsTested      int64 // conflict-build pair tests
	FixedPairsTested int64 // cross-frontier adjacency tests, each slot's up to its first adjacent frozen vertex
	Duration         time.Duration
}

// RefineStats is the outcome of a refinement run: the refined coloring —
// always proper, with ColorsAfter ≤ ColorsBefore and every round's count
// non-increasing — plus the per-round and aggregate work records.
type RefineStats struct {
	Colors                    graph.Coloring // refined proper coloring (dense ids)
	ColorsBefore, ColorsAfter int
	Rounds                    int
	RoundStats                []RefineRound
	ClassesEliminated         int // ColorsBefore − ColorsAfter
	Moved, Stuck              int // totals over all rounds
	Iterations                int
	PairsTested               int64
	FixedPairsTested          int64
	TotalTime                 time.Duration
	// HostPeakBytes is the tracked peak of the refinement pass;
	// BudgetExceeded reports any crossing of Options.MemoryBudgetBytes (the
	// run still completes — an oversized smallest class degrades like a
	// streaming minimum shard, reported, never silent).
	HostPeakBytes  int64
	BudgetExceeded bool
}

// refine improves a finished proper coloring of the oracle by iteratively
// eliminating its smallest color classes, recoloring their members into the
// surviving palette against the frozen remainder. prev must be a complete
// proper coloring of the oracle (its properness is trusted, not
// re-verified); it is not modified — the refined coloring is returned in
// RefineStats.Colors with dense color ids. The result is proper whenever
// prev was, the color count never increases, and a fixed Options.Seed makes
// the whole run deterministic. ctx cancels at every engine stage boundary
// and between rounds. opts must already be validated.
func refine(ctx context.Context, o graph.Oracle, prev graph.Coloring, opts *Options, ropts RefineOptions) (*RefineStats, error) {
	if err := ropts.fill(); err != nil {
		return nil, err
	}
	n := o.NumVertices()
	// Same reset discipline as the other entry points: a reused tracker must
	// not leak an old budget or a stale peak into this run's verdict.
	opts.Tracker.SetBudget(opts.MemoryBudgetBytes)
	opts.Tracker.ResetPeak()

	t0 := time.Now()
	e := newEngine(ctx, o, opts, true)
	copy(e.colors, prev)
	// Densify once up front (map-based, handles arbitrarily sparse input
	// ids); every later renumber then works in O(C) slices.
	e.colors.Normalize()
	e.fixedEnd = n // the whole coloring is the frozen frontier

	st := &RefineStats{ColorsBefore: e.colors.NumColors()}
	// The per-round moved cap is derived the way streaming derives a shard:
	// autoShard's largest moved set whose worst-case footprint fits the
	// budget headroom, or the knob-free default without a budget.
	moveCap := autoShard(opts, o, n, n, e.tr.Current(), 1)

	stall := 0
	for round := 0; round < ropts.Rounds; round++ {
		if err := backend.Cancelled(ctx); err != nil {
			e.abort()
			return nil, err
		}
		C := e.renumberBySize()
		if C < 2 || (ropts.TargetColors > 0 && C <= ropts.TargetColors) {
			break
		}

		// Dissolve the smallest classes — the highest dense ids after the
		// renumber — up to the moved cap: always at least one class (an
		// oversized smallest class degrades like a streaming minimum shard),
		// never below the target, and never more than a quarter of the
		// classes. The fraction bound is what makes rounds converge instead
		// of thrash: moved vertices recolor into the surviving palette, so
		// dissolving too deep starves them of landing spots and the whole
		// round sticks — the ceiling must ratchet down, not collapse.
		sizes := e.ar.classSize
		limit := C - 1
		if frac := C / 4; frac >= 1 && frac < limit {
			limit = frac
		}
		if ropts.TargetColors > 0 && C-ropts.TargetColors < limit {
			limit = C - ropts.TargetColors
		}
		k, total := 0, 0
		for k < limit {
			s := int(sizes[C-1-k])
			if k > 0 && total+s > moveCap {
				break
			}
			total += s
			k++
		}
		ceiling := int32(C - k)

		// Stage the moved set: strip the dissolved classes out of the
		// coloring (ascending vertex order — deterministic), remembering the
		// old colors for the vertices that cannot move.
		moved := grow.Slice(e.ar.moved, total)
		saved := grow.Slice(e.ar.savedCol, total)
		idx := 0
		for v := 0; v < n; v++ {
			if c := e.colors[v]; c >= ceiling {
				moved[idx], saved[idx] = int32(v), c
				idx++
				e.colors[v] = graph.Uncolored
			}
		}
		e.ar.moved, e.ar.savedCol = moved, saved
		release := e.tr.Scoped(int64(total) * 8)

		pairs0, fixed0, iters0 := e.res.TotalPairsTested, e.res.FixedPairsTested, len(e.res.Iters)
		rt0 := time.Now()
		e.shardIdx = round
		// The round holds one frontier index for all its iterations when
		// the budget model fits it: the moved set's worst-case footprint
		// plus both of strike's indexes at their bound (4 bytes per vertex
		// of the graph, 8 per color each) on top of what is live now.
		// Otherwise it scans the frontier in chunks, as a repair unit
		// does; the masks, and so the coloring, are the same either way.
		hold := opts.MemoryBudgetBytes <= 0 ||
			e.tr.Current()+shardFootprint(opts, o, n, total)+int64(n)*4+int64(ceiling+1)*16 <= opts.MemoryBudgetBytes
		if err := e.recolor(moved, ceiling, n+round, hold); err != nil {
			release()
			e.abort()
			return nil, err
		}

		// Restore the stuck vertices. Keeping the old color is always
		// proper: old same-class members are mutually non-adjacent, every
		// moved neighbor landed strictly below the ceiling, and every other
		// class is untouched.
		seen := grow.Zeroed(e.ar.stuckSeen, k)
		stuck := 0
		for i, v := range moved {
			if e.colors[v] == graph.Uncolored {
				e.colors[v] = saved[i]
				seen[saved[i]-ceiling] = true
				stuck++
			}
		}
		e.ar.stuckSeen = seen
		release()
		survivors := 0
		for _, s := range seen {
			if s {
				survivors++
			}
		}
		colorsAfter := int(ceiling) + survivors
		eliminated := C - colorsAfter

		st.RoundStats = append(st.RoundStats, RefineRound{
			Round:            round + 1,
			Ceiling:          int(ceiling),
			Classes:          k,
			Moved:            total,
			Recolored:        total - stuck,
			Stuck:            stuck,
			Eliminated:       eliminated,
			ColorsAfter:      colorsAfter,
			Iterations:       len(e.res.Iters) - iters0,
			PairsTested:      e.res.TotalPairsTested - pairs0,
			FixedPairsTested: e.res.FixedPairsTested - fixed0,
			Duration:         time.Since(rt0),
		})
		st.Moved += total
		st.Stuck += stuck
		if eliminated == 0 {
			stall++
			if stall >= stallRounds {
				break
			}
		} else {
			stall = 0
		}
		if ropts.TargetColors > 0 && colorsAfter <= ropts.TargetColors {
			break
		}
	}

	// Leave the result with dense ids regardless of how the loop exited.
	if opts.Variant == VariantEquitable {
		// A refinement round can leave classes lopsided (it empties the
		// smallest ones); restore the variant's ±1 contract before sealing.
		balanceColors(o, e.colors)
	}
	e.renumberBySize()
	st.Colors = e.colors
	st.ColorsAfter = e.colors.NumColors()
	st.Rounds = len(st.RoundStats)
	st.ClassesEliminated = st.ColorsBefore - st.ColorsAfter
	st.Iterations = len(e.res.Iters)
	st.PairsTested = e.res.TotalPairsTested
	st.FixedPairsTested = e.res.FixedPairsTested
	st.TotalTime = time.Since(t0)
	st.HostPeakBytes = e.tr.Peak()
	st.BudgetExceeded = e.tr.OverBudget()
	e.tr.Free(int64(n) * 4) // the engine's color-array charge (see finish)
	return st, nil
}

// recolor runs one fixed-remainder recolor unit over an arbitrary ascending
// vertex subset with the palette pinned to the existing colors [0, ceil),
// then unpins it. The unit spans the whole graph — its fixed-color pass
// reads every still-colored vertex of [0, fixedEnd) — while the active
// set, and with it the unit's live memory, is the given set alone. With
// hold the unit instead indexes that frontier once (indexFrontier) and
// holds the index until it ends: one O(n) index in place of a chunked
// frontier scan per iteration. Vertices that cannot move stay uncolored
// for the caller to settle. Unit randomness derives from (Seed, key);
// callers partition the key space: refinement rounds use n+round, the
// speculative repair 2n+lane start — both disjoint from the shard domain
// [0, n), so a recolor never replays a shard's random stream.
func (e *engine) recolor(ids []int32, ceil int32, key int, hold bool) error {
	e.start, e.end = 0, e.n
	e.active = e.ar.activeBuf(len(ids))
	copy(e.active, ids)
	e.activeBytes = int64(len(ids)) * 4
	e.tr.Alloc(e.activeBytes)
	e.base = 0
	e.iter = 0
	e.bal = e.newBalance()
	e.rng = newUnitRNG(e.opts.Seed, key)
	e.refineCeil = ceil
	release := func() {}
	if hold {
		e.unitIDs = ids
		release = e.indexFrontier()
	}
	err := e.runUnit()
	release()
	e.refineCeil, e.unitIDs = 0, nil
	return err
}

// indexFrontier indexes a refine round's frozen frontier: every vertex of
// [0, fixedEnd) whose color lies in [0, refineCeil), read straight from the
// color array into the arena's frontier index. The frontier and the
// palette window stay put for the whole unit — only the unit's own
// vertices gain colors, and strike indexes those per iteration — so one
// index serves every iteration. Its bytes (4 per indexed vertex plus 8 per
// color) are charged until the returned release runs.
func (e *engine) indexFrontier() func() {
	ix := &e.ar.frontier
	ix.Rebuild(e.colors, nil, 0, e.fixedEnd, 0, int(e.refineCeil))
	return e.tr.Scoped(ix.Bytes())
}

// renumberBySize remaps the engine's coloring to dense ids [0, C) ordered
// by class size descending (ties by previous id ascending — deterministic),
// so the smallest classes hold the highest ids; returns C and leaves the
// per-dense-id class sizes in the arena's classSize buffer. Colors must
// already be dense-ish (Refine normalizes the input once up front), keeping
// every buffer here O(C).
func (e *engine) renumberBySize() int {
	ar := e.ar
	maxc := int(e.colors.MaxColor())
	// Four int32 buffers bounded by maxc+1 (counts, order, remap, sizes),
	// live only inside this call.
	defer e.tr.Scoped(int64(maxc+1) * 16)()
	cnt := grow.Zeroed(ar.classCnt, maxc+1)
	for _, c := range e.colors {
		cnt[c]++
	}
	ord := ar.classOrd[:0]
	for c := 0; c <= maxc; c++ {
		if cnt[c] > 0 {
			ord = append(ord, int32(c))
		}
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if cnt[a] != cnt[b] {
			return int(cnt[b] - cnt[a])
		}
		return int(a - b)
	})
	C := len(ord)
	remap := grow.Slice(ar.classMap, maxc+1)
	size := grow.Slice(ar.classSize, C)
	for rank, c := range ord {
		remap[c] = int32(rank)
		size[rank] = cnt[c]
	}
	for v, c := range e.colors {
		e.colors[v] = remap[c]
	}
	ar.classCnt, ar.classOrd, ar.classMap, ar.classSize = cnt, ord, remap, size
	return C
}
