package core

import (
	"math/rand"
	"slices"

	"picasso/internal/backend"
	"picasso/internal/grow"
)

// colorLists holds the per-vertex candidate color lists of one iteration in
// flat storage: vertex i owns the L-wide slot flat[i*L : (i+1)*L], its
// live list at the head of it and live[i] long. Colors are palette-local
// (in [0, P)); the iteration's base offset is added only when a color is
// finalized, implementing the paper's fresh-palette rule (palette of
// iteration ℓ is {(ℓ−1)P, …, ℓP−1}). It implements backend.Lists, the view
// the conflict-construction kernel consumes; the kernel's bucket index
// supersedes the per-pair intersection test this struct used to carry, so
// the lists are pure storage. assignRandomLists leaves every list whole
// and ascending; the fixed-color pass strikes the colors a frozen neighbor
// holds (prune), and Algorithm 2 then strikes, in the same slots, the
// colors conflict neighbors take (remove).
type colorLists struct {
	n, P, L int
	flat    []int32
	live    []int32 // per-vertex live list length
}

// Bytes returns the memory footprint of the list storage: the L-wide slots,
// not the (possibly arena-pooled) capacity, and not shrunk by strikes —
// this is the figure device builds ship and trackers charge.
func (cl *colorLists) Bytes() int64 {
	return int64(len(cl.flat)) * 4
}

// list returns vertex i's live candidate colors.
func (cl *colorLists) list(i int) []int32 {
	lo := i * cl.L
	return cl.flat[lo : lo+int(cl.live[i])]
}

// prune strikes every slot the fixed-color pass marked (mask[i*L+k] for
// slot k of vertex i's whole list): each list keeps its unmarked colors, in
// order, at the head of its slot, so it stays ascending, and list returns
// only them. A list struck to nothing is empty. The slot storage, ListSize
// and Bytes do not change.
func (cl *colorLists) prune(mask []bool) {
	for i := 0; i < cl.n; i++ {
		lo := i * cl.L
		k := lo
		for s, c := range cl.flat[lo : lo+cl.L] {
			if !mask[lo+s] {
				cl.flat[k] = c
				k++
			}
		}
		cl.live[i] = int32(k - lo)
	}
}

// remove strikes color c from vertex v's live list if present, by
// swap-with-last (Algorithm 2 needs no order once the build has run), and
// reports whether it did.
func (cl *colorLists) remove(v, c int32) bool {
	lst := cl.list(int(v))
	for i, x := range lst {
		if x == c {
			last := len(lst) - 1
			lst[i] = lst[last]
			cl.live[v] = int32(last)
			return true
		}
	}
	return false
}

// Len returns the vertex count (backend.Lists).
func (cl *colorLists) Len() int { return cl.n }

// ListSize returns L, the most colors a list holds (backend.Lists).
func (cl *colorLists) ListSize() int { return cl.L }

// Palette returns P (backend.Lists).
func (cl *colorLists) Palette() int { return cl.P }

// List returns vertex i's sorted candidate colors (backend.Lists).
func (cl *colorLists) List(i int) []int32 { return cl.list(i) }

var _ backend.Lists = (*colorLists)(nil)

// assignRandomLists samples, for each of n vertices, L distinct colors
// uniformly at random from [0, P) (Algorithm 1, line 6) using Floyd's
// subset-sampling algorithm, sorting each list (the bucket kernel binary
// searches within buckets and the list-coloring phase merges lists, both
// relying on ascending order). List storage and the duplicate-detection
// stamp set come from the arena, so the random stream — and therefore the
// sampled lists — are identical to the historical map-based sampler with
// none of its per-vertex rebuild cost.
func assignRandomLists(n, P, L int, rng *rand.Rand, ar *Arena) *colorLists {
	cl := &ar.cl
	cl.n, cl.P, cl.L = n, P, L
	cl.flat = grow.Slice(cl.flat, n*L)
	cl.live = grow.Slice(cl.live, n)
	chosen := &ar.stamps
	for i := 0; i < n; i++ {
		cl.live[i] = int32(L)
		lst := cl.list(i)
		if L == P {
			for c := 0; c < P; c++ {
				lst[c] = int32(c)
			}
		} else {
			chosen.reset(P)
			k := 0
			for j := P - L; j < P; j++ {
				t := int32(rng.Intn(j + 1))
				if chosen.has(t) {
					t = int32(j)
				}
				chosen.add(t)
				lst[k] = t
				k++
			}
			slices.Sort(lst)
		}
	}
	return cl
}
