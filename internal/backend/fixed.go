package backend

import (
	"context"

	"picasso/internal/bucket"
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
// put into the index — global vertex ids, in the streaming engine's use.
// Implementations must not retain fixed/hits.
type CrossOracle interface {
	// FirstCross returns the position in fixed of the first vertex adjacent
	// to active row i, or −1 when none is. A pair-by-pair implementation
	// tests fixed in order and stops at that first witness; one with a
	// batched row kernel may answer all of fixed in one call, into hits
	// (scratch of len(fixed)).
	FirstCross(i int, fixed []int32, hits []bool) int
}

// Forbid scans every active row's candidate list against ix — the fixed
// vertices bucketed by palette-local color, built by bucket.Index.Rebuild
// over the lists' palette window — and marks forbidden[i*L + k] when list
// slot k of row i carries a color some adjacent fixed vertex already holds
// (marks are only ever set, never cleared, so repeated passes over several
// indexes accumulate, and a slot already marked is skipped). Each slot
// asks the oracle once for its bucket's first adjacent member, lending the
// worker's hit buffer as scratch. Rows are split into parallel chunks
// (workers ≤ 0 = GOMAXPROCS); each row writes only its own mask slots, so
// the result is deterministic regardless of schedule. Returns the cross
// adjacency tests the pass needs: per tested slot, its witness's position
// + 1, or the whole bucket when no member is adjacent — the same count
// whether the oracle stops at the witness or a row kernel answers the
// whole bucket. Cancellation is honored at chunk boundaries: a cancelled
// pass may leave the mask partially marked, and the caller discards it.
func Forbid(ctx context.Context, ix *bucket.Index, o CrossOracle, lists Lists, workers int, a *Arena, forbidden []bool) int64 {
	m, L := lists.Len(), lists.ListSize()
	if m == 0 || ix.NumVertices() == 0 {
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
				members := ix.Bucket(c)
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
