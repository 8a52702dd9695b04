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
// needed — and every active row tests, per candidate color, only that
// color's bucket through one batched cross-adjacency call. The pass writes a
// per-list-slot forbidden mask, from which the engine strikes the marked
// colors out of the lists; it never materializes cross-shard edges.

// CrossOracle answers adjacency between an active (iteration-local) row and
// fixed frontier vertices. The fixed ids are the opaque int32 ids the caller
// put into the FixedBuckets index — global vertex ids, in the streaming
// engine's use. Implementations must not retain fixed/out.
type CrossOracle interface {
	// HasCross writes, for every k, whether active row i is adjacent to
	// fixed vertex fixed[k]; len(out) must be at least len(fixed).
	HasCross(i int, fixed []int32, out []bool)
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

// Bucket returns the fixed vertices holding palette-local color c.
func (fb *FixedBuckets) Bucket(c int32) []int32 {
	return fb.Vtx[fb.Off[c]:fb.Off[c+1]]
}

// Bytes is the index footprint for budget accounting: live entries, not
// arena-pooled capacity.
func (fb *FixedBuckets) Bytes() int64 {
	return int64(len(fb.Off))*8 + int64(len(fb.Vtx))*4
}

// crossBlock bounds one batched cross-adjacency call, so a row stops paying
// for a large bucket as soon as one adjacent fixed vertex condemns the
// color.
const crossBlock = 256

// Forbid scans every active row's candidate list against the index and
// marks forbidden[i*L + k] when list slot k of row i carries a color some
// adjacent fixed vertex already holds (marks are only ever set, never
// cleared, so repeated passes over frontier chunks accumulate). Rows are
// split into parallel chunks (workers ≤ 0 = GOMAXPROCS); each row writes
// only its own mask slots, so the result is deterministic regardless of
// schedule. Returns the number of cross adjacency tests performed.
// Cancellation is honored at chunk boundaries: a cancelled pass may leave
// the mask partially marked, and the caller discards it.
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
		hits := s.hitsFor(crossBlock)
		var tested int64
		for i := lo; i < hi; i++ {
			for k, c := range lists.List(i) {
				if forbidden[i*L+k] {
					continue // condemned by an earlier frontier chunk
				}
				members := fb.Bucket(c)
				for len(members) > 0 {
					blk := members
					if len(blk) > crossBlock {
						blk = blk[:crossBlock]
					}
					o.HasCross(i, blk, hits)
					tested += int64(len(blk))
					hit := false
					for b := range blk {
						if hits[b] {
							hit = true
							break
						}
					}
					if hit {
						forbidden[i*L+k] = true
						break
					}
					members = members[len(blk):]
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
