package backend

import (
	"context"

	"picasso/internal/graph"
	"picasso/internal/grow"
	"picasso/internal/par"
)

// This file is the fixed-color pass of the streaming engine: the second life
// of the palette-bucket inverted index. When Picasso colors a shard against
// an already-colored frontier, a candidate color c is unusable for an active
// vertex exactly when some *fixed* neighbor already holds c. Fixed vertices
// are bucketed by their (palette-local) color — each appears in exactly one
// bucket, so unlike the candidate-list index no pair deduplication is ever
// needed — and every active row asks, per candidate color, for the first
// member of that color's bucket it is adjacent to. The pass writes a
// per-list-slot forbidden mask, from which the engine strikes the marked
// colors out of the lists; it never materializes cross-shard edges.

// CrossOracle answers adjacency between an active (iteration-local) row and
// fixed frontier vertices. The fixed ids are the opaque int32 ids the caller
// put into the FixedBuckets index — global vertex ids, in the streaming
// engine's use. Implementations must not retain fixed/hits.
type CrossOracle interface {
	// FirstCross returns the position in fixed of the first vertex adjacent
	// to active row i, or −1 when none is. A pair-by-pair implementation
	// tests fixed in order and stops at that first witness; one with a
	// batched row kernel may answer all of fixed in one call, into hits
	// (scratch of len(fixed)).
	FirstCross(i int, fixed []int32, hits []bool) int
}

// FixedBuckets is the inverted index palette-local color → fixed vertices
// holding it, in CSR layout like Buckets (Off has P+1 entries into Vtx).
type FixedBuckets struct {
	P   int
	Off []int64
	Vtx []int32
}

// NewFixedBucketsIn builds the fixed-color index over len(ids) frontier
// vertices: ids[k] holds palette-local color colors[k], which must lie in
// [0, P). Index storage (and the counting scratch) comes from the arena.
// Two counting passes, Θ(|ids| + P) time and space.
func NewFixedBucketsIn(a *Arena, P int, ids, colors []int32) *FixedBuckets {
	fb := &a.fb
	a.cnt = grow.Zeroed(a.cnt, P)
	cnt := a.cnt
	fb.P = P
	for _, c := range colors {
		cnt[c]++
	}
	fb.Off = graph.ExclusiveSumInto(cnt, grow.Slice(fb.Off, P+1))
	fb.Vtx = grow.Slice(fb.Vtx, int(fb.Off[P]))
	copy(cnt, fb.Off[:P])
	for k, c := range colors {
		fb.Vtx[cnt[c]] = ids[k]
		cnt[c]++
	}
	return fb
}

// IndexColors rebuilds fb as the index of the vertices whose color lies in
// [0, P): every v of ids, or every v < len(colors) when ids is nil, filed
// under colors[v] in the order visited. It reads the color array directly,
// with no id/color staging and no counting scratch: Off counts, then
// serves as the fill cursor, then shifts back into place. Θ(vertices + P)
// time; Bytes is the footprint. Storage is fb's own, reused across
// rebuilds.
func (fb *FixedBuckets) IndexColors(P int, colors, ids []int32) {
	n := len(colors)
	if ids != nil {
		n = len(ids)
	}
	vertex := func(k int) int32 {
		if ids == nil {
			return int32(k)
		}
		return ids[k]
	}
	fb.P = P
	off := grow.Zeroed(fb.Off, P+1)
	for k := 0; k < n; k++ {
		if c := colors[vertex(k)]; uint32(c) < uint32(P) {
			off[c+1]++
		}
	}
	for c := 1; c <= P; c++ {
		off[c] += off[c-1]
	}
	fb.Vtx = grow.Slice(fb.Vtx, int(off[P]))
	for k := 0; k < n; k++ {
		v := vertex(k)
		if c := colors[v]; uint32(c) < uint32(P) {
			fb.Vtx[off[c]] = v
			off[c]++
		}
	}
	// off[c] now ends bucket c, where bucket c+1 starts.
	copy(off[1:], off[:P])
	off[0] = 0
	fb.Off = off
}

// Bucket returns the fixed vertices holding palette-local color c.
func (fb *FixedBuckets) Bucket(c int32) []int32 {
	return fb.Vtx[fb.Off[c]:fb.Off[c+1]]
}

// Bytes is the index footprint for budget accounting: live entries, not
// arena-pooled capacity.
func (fb *FixedBuckets) Bytes() int64 {
	return int64(len(fb.Off))*8 + int64(len(fb.Vtx))*4
}

// Forbid scans every active row's candidate list against the index and
// marks forbidden[i*L + k] when list slot k of row i carries a color some
// adjacent fixed vertex already holds (marks are only ever set, never
// cleared, so repeated passes over several indexes accumulate, and a slot
// already marked is skipped). Each slot asks the oracle once for its
// bucket's first adjacent member, lending the worker's hit buffer as
// scratch. Rows are split into parallel chunks (workers ≤ 0 = GOMAXPROCS);
// each row writes only its own mask slots, so the result is deterministic
// regardless of schedule. Returns the cross adjacency tests the pass
// needs: per tested slot, its witness's position + 1, or the whole bucket
// when no member is adjacent — the same count whether the oracle stops at
// the witness or a row kernel answers the whole bucket. Cancellation is honored
// at chunk boundaries: a cancelled pass may leave the mask partially
// marked, and the caller discards it.
func (fb *FixedBuckets) Forbid(ctx context.Context, o CrossOracle, lists Lists, workers int, a *Arena, forbidden []bool) int64 {
	m, L := lists.Len(), lists.ListSize()
	if m == 0 || len(fb.Vtx) == 0 {
		return 0
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if workers > m {
		workers = m
	}
	a.reserveLanes(workers)
	calls := a.callsBuf(workers)
	par.ForChunks(workers, m, func(lo, hi, w int) {
		if Cancelled(ctx) != nil {
			return
		}
		s := a.scratch(w, 0)
		var tested int64
		for i := lo; i < hi; i++ {
			for k, c := range lists.List(i) {
				if forbidden[i*L+k] {
					continue // condemned by an earlier pass
				}
				members := fb.Bucket(c)
				if len(members) == 0 {
					continue
				}
				if hit := o.FirstCross(i, members, s.hitsFor(len(members))); hit >= 0 {
					forbidden[i*L+k] = true
					tested += int64(hit + 1)
				} else {
					tested += int64(len(members))
				}
			}
		}
		calls[w] += tested
	})
	var total int64
	for w := 0; w < workers; w++ {
		total += calls[w]
	}
	return total
}
