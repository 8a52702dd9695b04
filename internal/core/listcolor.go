package core

import (
	"math/rand"

	"picasso/internal/graph"
	"picasso/internal/grow"
)

// listColorResult is the outcome of coloring one iteration's conflict graph.
type listColorResult struct {
	assign  []int32 // palette-local color per conflict vertex, -1 = failed
	failed  []int32 // vertices whose lists ran dry (the paper's V_u)
	colored int     // number of successfully colored conflict vertices
}

// mutableLists holds the candidate lists of the conflict vertices in mutable
// working form (only vertices with conflict degree > 0 need one; unconflicted
// vertices are colored directly by the caller). Storage is one flat slab —
// an L-wide slot per conflict vertex with a live-length counter — instead of
// a slice header and a heap allocation per vertex: list removal is a
// swap-with-last plus a counter decrement, and the whole structure recycles
// through the arena. Each vertex also carries a 64-bit signature of its live
// list (bit c&63 set for every live color c), kept exact on every strike
// and zeroed once the vertex is colored or its list empties: a clear bit
// proves the color is absent, so Algorithm 2 skips such a neighbor with one
// word test.
type mutableLists struct {
	L     int
	slab  []int32
	slot  []int32  // per conflict-graph vertex id: L-wide slot index (offset = slot·L, computed in int so slabs past 2^31 entries stay addressable)
	count []int32  // per conflict-graph vertex id: live list length
	sig   []uint64 // per conflict-graph vertex id: live-list signature, 0 = can hold no color
}

// newMutableLists copies the conflicted vertices' candidate lists — what
// the fixed-color pass left of them in a streamed run — into the arena's
// slab, and writes each one's signature from the copied list. slot/count/sig
// entries of unconflicted vertices are left untouched (garbage): only
// conflict vertices are ever looked up. A vertex whose whole list was
// struck has count 0 and signature 0 — the callers route it straight to the
// failed set.
func newMutableLists(cl *colorLists, conflicted []int32, ar *Arena) *mutableLists {
	ml := &ar.ml
	ml.L = cl.L
	ml.slab = grow.Slice(ml.slab, len(conflicted)*cl.L)
	ml.slot = grow.Slice(ml.slot, cl.n)
	ml.count = grow.Slice(ml.count, cl.n)
	ml.sig = grow.Slice(ml.sig, cl.n)
	for slot, v := range conflicted {
		off := slot * cl.L
		live := copy(ml.slab[off:off+cl.L], cl.list(int(v)))
		ml.slot[v] = int32(slot)
		ml.count[v] = int32(live)
		ml.sig[v] = signature(ml.slab[off : off+live])
	}
	return ml
}

// signature returns the 64-bit summary of a live list: bit c&63 set for
// every color c in it.
func signature(lst []int32) uint64 {
	var sig uint64
	for _, c := range lst {
		sig |= 1 << (uint32(c) & 63)
	}
	return sig
}

// list returns vertex v's live candidate colors.
func (ml *mutableLists) list(v int32) []int32 {
	s := int(ml.slot[v]) * ml.L
	return ml.slab[s : s+int(ml.count[v])]
}

// remove deletes color c from vertex v's list if present (swap-with-last;
// order is irrelevant at this stage) and recomputes v's signature from the
// remaining list, so another color aliasing c modulo 64 keeps its bit.
// Reports whether a removal happened.
func (ml *mutableLists) remove(v int32, c int32) bool {
	lst := ml.list(v)
	n := len(lst)
	for i, x := range lst {
		if x == c {
			lst[i] = lst[n-1]
			ml.count[v] = int32(n - 1)
			ml.sig[v] = signature(lst[:n-1])
			return true
		}
	}
	return false
}

// colorConflictDynamic is the paper's Algorithm 2: vertices live in buckets
// keyed by current list size; repeatedly pick a uniformly random vertex from
// the lowest (most constrained) bucket, give it a uniformly random color
// from its list, and strike that color from all uncolored conflict
// neighbors, re-bucketing them (or declaring them failed when their list
// empties). Runtime O((|Vc|+|Ec|)·L) — the heap-free bound of §IV-B — but a
// neighbor whose live-list signature lacks the picked color's bit (every
// colored or failed one, and every uncolored one holding no color congruent
// to it modulo 64) costs one word test instead of a list scan. In streamed
// runs the fixed-color pass has already struck from the lists every color
// an adjacent frozen vertex holds; a vertex left with nothing fails
// immediately.
func colorConflictDynamic(gc *graph.CSR, cl *colorLists, conflicted []int32, bal *classBalance, base int32, rng *rand.Rand, ar *Arena) *listColorResult {
	ml := newMutableLists(cl, conflicted, ar)
	assign := ar.assignBuf(cl.n)
	b := ar.bucketArray(cl.n, cl.L)
	res := ar.result(assign)
	for _, v := range conflicted {
		if ml.count[v] == 0 {
			res.failed = append(res.failed, v)
			continue
		}
		b.Insert(v, int(ml.count[v]))
	}
	for b.Len() > 0 {
		v := b.PickFromMin(rng.Intn(b.MinBucketSize()))
		lst := ml.list(v)
		var c int32
		if bal != nil {
			// Equitable: the live list holds only still-feasible colors, so
			// the bias just picks the one with the smallest class.
			c = lst[bal.pickSlot(lst, base, rng)]
			bal.note(base + c)
		} else {
			c = lst[rng.Intn(len(lst))]
		}
		assign[v] = c
		ml.sig[v] = 0
		b.Remove(v)
		res.colored++
		bit := uint64(1) << (uint32(c) & 63)
		for _, u := range gc.Neighbors(int(v)) {
			if ml.sig[u]&bit == 0 {
				continue
			}
			if !ml.remove(u, c) {
				continue
			}
			if ml.count[u] == 0 {
				b.Remove(u)
				res.failed = append(res.failed, u)
				continue
			}
			b.Update(u, int(ml.count[u]))
		}
	}
	return res
}

// colorConflictStatic colors the conflict vertices in a fixed order (the
// paper's "static order schemes", §IV-B): each vertex takes the first color
// of its list (what the fixed-color pass left of it, in streamed runs) not
// already held by a colored conflict neighbor. The taken-color set is the
// arena's palette stamp set — one epoch bump per vertex instead of
// rebuilding a map on the hot path.
func colorConflictStatic(gc *graph.CSR, cl *colorLists, conflicted []int32, strategy ListStrategy, bal *classBalance, base int32, rng *rand.Rand, ar *Arena) *listColorResult {
	order := ar.orderBuf(conflicted)
	switch strategy {
	case StaticNatural:
		// ids ascending — conflicted is already in ascending id order.
	case StaticLargest:
		sortByConflictDegreeDesc(gc, order)
	case StaticRandom:
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	assign := ar.assignBuf(cl.n)
	res := ar.result(assign)
	taken := &ar.stamps
	for _, v := range order {
		taken.reset(cl.P)
		for _, u := range gc.Neighbors(int(v)) {
			if c := assign[u]; c != -1 {
				taken.add(c)
			}
		}
		picked := int32(-1)
		if bal != nil {
			// Equitable: among the colors not taken, the one with the
			// smallest class (ties uniform), not the first fit.
			ties := 0
			var best int32
			for _, c := range cl.list(int(v)) {
				if taken.has(c) {
					continue
				}
				cnt := bal.count(base + c)
				switch {
				case picked == -1 || cnt < best:
					picked, best, ties = c, cnt, 1
				case cnt == best:
					ties++
					if rng.Intn(ties) == 0 {
						picked = c
					}
				}
			}
		} else {
			for _, c := range cl.list(int(v)) {
				if !taken.has(c) {
					picked = c
					break
				}
			}
		}
		if picked == -1 {
			res.failed = append(res.failed, v)
			continue
		}
		if bal != nil {
			bal.note(base + picked)
		}
		assign[v] = picked
		res.colored++
	}
	return res
}

// sortByConflictDegreeDesc orders vertices by decreasing conflict degree
// with id tie-break (deterministic).
func sortByConflictDegreeDesc(gc *graph.CSR, order []int32) {
	// Counting sort by degree (degrees are small: O(log³ n) w.h.p.).
	maxDeg := 0
	for _, v := range order {
		if d := gc.Degree(int(v)); d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for _, v := range order {
		d := gc.Degree(int(v))
		buckets[d] = append(buckets[d], v)
	}
	k := 0
	for d := maxDeg; d >= 0; d-- {
		for _, v := range buckets[d] {
			order[k] = v
			k++
		}
	}
}
