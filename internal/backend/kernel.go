package backend

import (
	"sort"

	"picasso/internal/bitvec"
	"picasso/internal/graph"
	"picasso/internal/grow"
	"picasso/internal/memtrack"
)

// Buckets is the palette inverted index at the heart of every builder: for
// each candidate color c ∈ [0, P), the ascending list of vertices whose
// candidate list contains c, stored flat in CSR style (Off has P+1 entries
// into Vtx, which has n·L entries — one per list slot, the same footprint as
// the lists themselves).
//
// Two vertices share a candidate color exactly when they co-occur in some
// bucket, so enumerating within-bucket pairs *is* the shares-color test:
// no per-pair list intersection is ever computed, and the edge oracle is the
// only per-pair work left.
type Buckets struct {
	P   int
	Off []int64
	Vtx []int32
	// RowWeight[i] counts the bucket co-occurrences (j, i) with j > i over
	// all of i's colors — an upper bound on row i's candidate pairs before
	// deduplication, and the load measure for weighted row chunking.
	// Σ RowWeight = PairWork.
	RowWeight []int64
}

// NewBucketsIn builds the inverted index in two counting passes over the
// lists, Θ(n·L) time and space. The index storage and the counting scratch
// come from the arena; the index is valid until the arena's next build.
func NewBucketsIn(a *Arena, lists Lists) *Buckets {
	n, P := lists.Len(), lists.Palette()
	b := &a.bk
	a.cnt = grow.Zeroed(a.cnt, P)
	cnt := a.cnt
	b.P = P
	for i := 0; i < n; i++ {
		for _, c := range lists.List(i) {
			cnt[c]++
		}
	}
	b.Off = graph.ExclusiveSumInto(cnt, grow.Slice(b.Off, P+1))
	b.Vtx = grow.Slice(b.Vtx, int(b.Off[P]))
	// Reuse the counting pass as the fill cursor.
	copy(cnt, b.Off[:P])
	for i := 0; i < n; i++ {
		for _, c := range lists.List(i) {
			b.Vtx[cnt[c]] = int32(i)
			cnt[c]++
		}
	}
	// Buckets are ascending by construction (vertices inserted in id order),
	// so the member at position k of a bucket of size s has s−1−k larger
	// co-members — the pairs its row will enumerate from that bucket.
	b.RowWeight = grow.Zeroed(b.RowWeight, n)
	for c := 0; c < P; c++ {
		members := b.Vtx[b.Off[c]:b.Off[c+1]]
		for k, j := range members {
			b.RowWeight[j] += int64(len(members) - 1 - k)
		}
	}
	return b
}

// Bytes returns the index footprint for budget accounting (device builders
// ship the index alongside the lists): the live entries, not the possibly
// arena-pooled capacity — budget decisions must not depend on what a warm
// arena previously held.
func (b *Buckets) Bytes() int64 {
	return int64(len(b.Off))*8 + int64(len(b.Vtx))*4 + int64(len(b.RowWeight))*8
}

// PairWork returns Σ_c |bucket_c|·(|bucket_c|−1)/2, the kernel's total pair
// enumerations before deduplication — the Θ(Σ_c |bucket_c|²) bound that
// replaces the all-pairs m(m−1)/2.
func (b *Buckets) PairWork() int64 {
	var total int64
	for c := 0; c < b.P; c++ {
		s := b.Off[c+1] - b.Off[c]
		total += s * (s - 1) / 2
	}
	return total
}

// Scratch is the per-worker state of the row scan: a seen-bitset, the
// candidate list of the current row, and the batch-test hit buffer. One
// Scratch may be reused across any number of sequential row scans;
// concurrent rows need separate Scratches.
type Scratch struct {
	seen bitvec.Bits
	cand []int32
	hits []bool
}

// NewScratch returns scratch state for graphs of n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{seen: bitvec.NewBits(n)}
}

// grow widens the seen-bitset to n vertices. The bitset is all-zero between
// rows (CollectRow clears exactly the bits it set), so growing may simply
// replace it.
func (s *Scratch) grow(n int) {
	if len(s.seen)*64 < n {
		s.seen = bitvec.NewBits(n)
	}
}

// hitsFor returns the hit buffer resized for n candidates.
func (s *Scratch) hitsFor(n int) []bool {
	s.hits = grow.Slice(s.hits, n)
	return s.hits
}

// ScratchBytes returns the bitset footprint of a Scratch for n vertices
// without allocating one — for charging per-worker scratch to a tracker
// up front (the candidate slice grows on demand and is excluded, as
// transient append storage is throughout the memory model).
func ScratchBytes(n int) int64 {
	return int64((n+63)/64) * 8
}

// CollectRow gathers row i's deduplicated candidate partners — every j > i
// sharing at least one candidate color with i, in bucket-discovery order —
// into the scratch candidate buffer and returns it. Duplicates (pairs
// sharing several colors) are suppressed with the scratch bitset, which is
// restored to all-zero before returning. Each bucket is entered at the first
// member greater than i via binary search: rows near the top of a bucket
// never rescan the vertices below them. The returned slice is valid until
// the next collection on the same Scratch.
func (b *Buckets) CollectRow(lists Lists, i int, s *Scratch) []int32 {
	s.cand = s.cand[:0]
	for _, c := range lists.List(i) {
		members := b.Vtx[b.Off[c]:b.Off[c+1]]
		k := sort.Search(len(members), func(k int) bool { return members[k] > int32(i) })
		for _, j := range members[k:] {
			if !s.seen.Test(int(j)) {
				s.seen.Set(int(j))
				s.cand = append(s.cand, j)
			}
		}
	}
	for _, j := range s.cand {
		s.seen.Clear(int(j))
	}
	return s.cand
}

// scanRows runs the kernel over rows [lo, hi), appending the surviving
// edges to coo and returning the number of pairs tested. Each row is one
// batched edge-oracle consultation: the row's deduplicated candidates are
// collected, tested in a single HasRow call (bucket co-occurrence already
// proved each pair shares a color), and the hits appended in candidate
// order — bit-identical COO output to the historical per-pair loop, minus
// a closure call and an oracle dispatch per pair. This is the one
// conflict-test loop every builder executes.
func (b *Buckets) scanRows(o BatchEdgeOracle, lists Lists, lo, hi int, s *Scratch, coo *graph.COO) int64 {
	var calls int64
	for i := lo; i < hi; i++ {
		cand := b.CollectRow(lists, i, s)
		if len(cand) == 0 {
			continue
		}
		hits := s.hitsFor(len(cand))
		o.HasRow(i, cand, hits)
		calls += int64(len(cand))
		for k, j := range cand {
			if hits[k] {
				coo.Append(int32(i), j)
			}
		}
	}
	return calls
}

// ReferenceAllPairs is the pre-bucketing construction kept as the benchmark
// and equivalence baseline: a sequential scan of all m(m−1)/2 pairs with a
// per-pair sorted-list intersection. New never builds it — every
// production builder uses the bucket kernel — but the package tests assert
// edge-set equality against it and BenchmarkConflictBuild measures the gap.
// Each call builds on a fresh arena.
func ReferenceAllPairs(o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error) {
	m := o.Len()
	coo := &graph.COO{N: m}
	var st Stats
	for i := 0; i < m; i++ {
		li := lists.List(i)
		for j := i + 1; j < m; j++ {
			st.PairsTested++
			if intersectSorted(li, lists.List(j)) && o.Has(i, j) {
				coo.Append(int32(i), int32(j))
			}
		}
	}
	return finishCOO(NewArena(), coo, tr, st)
}

// intersectSorted reports whether two ascending slices share an element.
func intersectSorted(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
