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

// signature returns the 64-bit summary of a live list: bit c&63 set for
// every color c in it. Algorithm 2 keeps one per conflict vertex, exact on
// every strike and zeroed once the vertex is colored or its list empties:
// a clear bit proves the color is absent, so a neighbor is skipped with one
// word test.
func signature(lst []int32) uint64 {
	var sig uint64
	for _, c := range lst {
		sig |= 1 << (uint32(c) & 63)
	}
	return sig
}

// colorConflictDynamic is the paper's Algorithm 2: vertices live in buckets
// keyed by current list size; repeatedly pick a uniformly random vertex from
// the lowest (most constrained) bucket, give it a uniformly random color
// from its list, and strike that color from all uncolored conflict
// neighbors, re-bucketing them (or declaring them failed when their list
// empties). Runtime O((|Vc|+|Ec|)·L) — the heap-free bound of §IV-B — but a
// neighbor whose live-list signature lacks the picked color's bit (every
// colored or failed one, and every uncolored one holding no color congruent
// to it modulo 64) costs one word test instead of a list scan. The strikes
// land in cl's own slots (colorLists.remove), so the conflict vertices'
// lists are spent afterwards; signatures of unconflicted vertices are left
// untouched (garbage), since only conflict vertices neighbor each other. In
// streamed runs the fixed-color pass has already struck from the lists
// every color an adjacent frozen vertex holds; a vertex left with nothing
// fails immediately.
func colorConflictDynamic(gc *graph.CSR, cl *colorLists, conflicted []int32, bal *classBalance, base int32, rng *rand.Rand, ar *Arena) *listColorResult {
	sig := grow.Slice(ar.sig, cl.n)
	ar.sig = sig
	assign := ar.assignBuf(cl.n)
	b := ar.bucketArray(cl.n, cl.L)
	res := ar.result(assign)
	for _, v := range conflicted {
		lst := cl.list(int(v))
		sig[v] = signature(lst)
		if len(lst) == 0 {
			res.failed = append(res.failed, v)
			continue
		}
		b.Insert(v, len(lst))
	}
	for b.Len() > 0 {
		v := b.PickFromMin(rng.Intn(b.MinBucketSize()))
		lst := cl.list(int(v))
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
		sig[v] = 0
		b.Remove(v)
		res.colored++
		bit := uint64(1) << (uint32(c) & 63)
		for _, u := range gc.Neighbors(int(v)) {
			if sig[u]&bit == 0 || !cl.remove(u, c) {
				continue
			}
			// Recompute from what is left, so another color aliasing c
			// modulo 64 keeps its bit.
			left := cl.list(int(u))
			sig[u] = signature(left)
			if len(left) == 0 {
				b.Remove(u)
				res.failed = append(res.failed, u)
				continue
			}
			b.Update(u, len(left))
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
