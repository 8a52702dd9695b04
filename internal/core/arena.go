package core

import (
	"math"

	"picasso/internal/backend"
	"picasso/internal/bucket"
	"picasso/internal/graph"
	"picasso/internal/grow"
)

// Arena pools every per-iteration buffer of a Picasso run — candidate-list
// storage, the sampling/taken stamp sets, the active-vertex double buffer,
// the conflict-vertex worklists, the mutable list slab, Algorithm 2's bucket
// array, and (through a backend.Arena) the conflict-construction kernel's
// working set. A run draws all its iteration-scoped storage from the arena,
// so iterations ≥ 2 of one run, and every run after the first on a reused
// arena, recolor with near-zero garbage — the steady state a service worker
// lives in.
//
// An Arena is NOT safe for concurrent use: hold one per goroutine. Buffers
// grow to the largest run seen and are retained until the arena is dropped.
// Options.Arena == nil gives every run a private arena, so pooling is the
// only code path.
type Arena struct {
	be         *backend.Arena
	cl         colorLists
	stamps     stampSet
	active     []int32
	spare      []int32
	conflicted []int32
	order      []int32
	assign     []int32
	ml         mutableLists
	bkt        *bucket.Array
	lc         listColorResult
	sub        graph.Oracle // retained SubViewer compaction

	// Streaming-only buffers: the fixed-color pass's forbidden mask and
	// frontier-chunk id/color staging, and the direct-failure worklist for
	// unconflicted vertices whose whole candidate list was pruned.
	forbid       []bool
	fixedIDs     []int32
	fixedColors  []int32
	directFailed []int32

	// Refinement-only buffers (refine.go): per-round class bookkeeping —
	// counts/order/remap over the current color ids, per-dense-class sizes —
	// and the moved-set staging (ids, saved colors, surviving-class marks).
	classCnt  []int32
	classOrd  []int32
	classMap  []int32
	classSize []int32
	moved     []int32
	savedCol  []int32
	stuckSeen []bool

	// Speculation-only buffer (speculate.go): the cross-shard repair's
	// loser worklist.
	specLosers []int32
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{be: backend.NewArena()} }

// activeBuf returns the active-vertex table sized for n vertices (contents
// garbage).
func (a *Arena) activeBuf(n int) []int32 {
	a.active = grow.Slice(a.active, n)
	return a.active
}

// nextActive maps the failed local ids through the current active table
// into the arena's spare buffer and swaps the two buffers, returning the
// next iteration's active set. failed must not alias either buffer.
func (a *Arena) nextActive(failed, active []int32) []int32 {
	buf := grow.Slice(a.spare, len(failed))
	for k, v := range failed {
		buf[k] = active[v]
	}
	a.spare = a.active
	a.active = buf
	return buf
}

// conflictedBuf returns the emptied conflict-vertex worklist; callers append
// and hand the grown slice back via retainConflicted.
func (a *Arena) conflictedBuf() []int32 { return a.conflicted[:0] }

// retainConflicted stores the grown worklist backing for the next iteration.
func (a *Arena) retainConflicted(buf []int32) { a.conflicted = buf }

// orderBuf returns a coloring-order buffer holding a copy of conflicted.
func (a *Arena) orderBuf(conflicted []int32) []int32 {
	a.order = grow.Slice(a.order, len(conflicted))
	copy(a.order, conflicted)
	return a.order
}

// assignBuf returns the per-vertex color assignment initialized to -1.
func (a *Arena) assignBuf(n int) []int32 {
	a.assign = grow.Slice(a.assign, n)
	for i := range a.assign {
		a.assign[i] = -1
	}
	return a.assign
}

// result returns the pooled list-coloring result, reset around assign.
func (a *Arena) result(assign []int32) *listColorResult {
	a.lc.assign = assign
	a.lc.failed = a.lc.failed[:0]
	a.lc.colored = 0
	return &a.lc
}

// forbidBuf returns the zeroed per-list-slot forbidden mask for n·L slots.
func (a *Arena) forbidBuf(slots int) []bool {
	a.forbid = grow.Zeroed(a.forbid, slots)
	return a.forbid
}

// fixedBufs returns the emptied frontier-chunk staging buffers; callers
// append ids/colors in lockstep and hand the grown slices back.
func (a *Arena) fixedBufs() ([]int32, []int32) {
	return a.fixedIDs[:0], a.fixedColors[:0]
}

// retainFixed stores the grown staging buffers for the next chunk.
func (a *Arena) retainFixed(ids, colors []int32) {
	a.fixedIDs, a.fixedColors = ids, colors
}

// losersBuf returns the emptied speculative-repair loser worklist; callers
// append and hand the grown slice back via retainLosers.
func (a *Arena) losersBuf() []int32 { return a.specLosers[:0] }

// retainLosers stores the grown worklist backing.
func (a *Arena) retainLosers(buf []int32) { a.specLosers = buf }

// directFailedBuf returns the emptied direct-failure worklist; callers
// append and hand the slice back via retainDirectFailed.
func (a *Arena) directFailedBuf() []int32 { return a.directFailed[:0] }

// retainDirectFailed stores the grown worklist backing.
func (a *Arena) retainDirectFailed(buf []int32) { a.directFailed = buf }

// bucketArray returns Algorithm 2's bucket structure for n vertices and
// keys [0, maxKey].
func (a *Arena) bucketArray(n, maxKey int) *bucket.Array {
	if a.bkt == nil {
		a.bkt = bucket.New(n, maxKey)
	} else {
		a.bkt.Reset(n, maxKey)
	}
	return a.bkt
}

// stampSet is a reusable palette-indexed membership set: add/has in O(1)
// with no per-use clearing. A reset bumps the epoch, invalidating every
// previous mark at once — the constant-time replacement for rebuilding a
// map (or zeroing an array) per vertex on the coloring hot paths.
type stampSet struct {
	mark  []int32
	epoch int32
}

// reset prepares the set for size distinct keys and empties it.
func (ss *stampSet) reset(size int) {
	if len(ss.mark) < size {
		ss.mark = make([]int32, size)
		ss.epoch = 0
	}
	ss.epoch++
	if ss.epoch == math.MaxInt32 {
		clear(ss.mark)
		ss.epoch = 1
	}
}

// add marks key c.
func (ss *stampSet) add(c int32) { ss.mark[c] = ss.epoch }

// has reports whether key c is marked.
func (ss *stampSet) has(c int32) bool { return ss.mark[c] == ss.epoch }
