package backend

import (
	"math/bits"
	"slices"
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
// lists, Θ(n·L) time and space, the way bucket.Index.Rebuild indexes a
// color array: Off counts, then serves as the fill cursor, then shifts
// back into place. The index storage comes from the arena; the index is
// valid until the arena's next build.
func NewBucketsIn(a *Arena, lists Lists) *Buckets {
	n, P := lists.Len(), lists.Palette()
	b := &a.bk
	b.P = P
	off := grow.Zeroed(b.Off, P+1)
	for i := 0; i < n; i++ {
		for _, c := range lists.List(i) {
			off[c+1]++
		}
	}
	for c := 1; c <= P; c++ {
		off[c] += off[c-1]
	}
	b.Vtx = grow.Slice(b.Vtx, int(off[P]))
	for i := 0; i < n; i++ {
		for _, c := range lists.List(i) {
			b.Vtx[off[c]] = int32(i)
			off[c]++
		}
	}
	// off[c] now ends bucket c, where bucket c+1 starts.
	copy(off[1:], off[:P])
	off[0] = 0
	b.Off = off
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
// candidate list of the current row, whether that row was walked (so came
// back ascending), and the batch-test hit buffer. One Scratch may be reused
// across any number of sequential row scans; concurrent rows need separate
// Scratches.
type Scratch struct {
	seen   bitvec.Bits
	cand   []int32
	walked bool
	hits   []bool
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

// maxWalkWords bounds the seen-bitset walk: a row whose span holds more than
// this many bitset words per candidate keeps discovery order instead. The
// walk reads every spanned word, so a few candidates spread over a wide id
// range (large sparse instances) would pay more to walk than sorting the
// row's few hits costs.
const maxWalkWords = 8

// CollectRow gathers row i's deduplicated candidate partners — every j > i
// sharing at least one candidate color with i — into the scratch candidate
// buffer and returns it. Duplicates (pairs sharing several colors) are
// suppressed with the scratch bitset, which is restored to all-zero before
// returning. Each bucket is entered at the first member greater than i via
// binary search: rows near the top of a bucket never rescan the vertices
// below them.
//
// The candidates come back ascending when the row is walked: the bitset
// words from i+1 to the row's largest candidate are read in order and
// zeroed as they are read, so the row needs no comparison sort. A row whose
// span holds more than maxWalkWords words per candidate is left in
// bucket-discovery order and its bits are cleared one by one; s.walked
// reports which of the two the row took. The returned slice is valid until
// the next collection on the same Scratch.
func (b *Buckets) CollectRow(lists Lists, i int, s *Scratch) []int32 {
	s.cand = s.cand[:0]
	hi := int32(i)
	for _, c := range lists.List(i) {
		members := b.Vtx[b.Off[c]:b.Off[c+1]]
		// Every bucket of i holds i and is ascending: its last member bounds
		// the candidates it adds, and a bucket ending at i adds none.
		last := members[len(members)-1]
		if last <= int32(i) {
			continue
		}
		hi = max(hi, last)
		k := sort.Search(len(members), func(k int) bool { return members[k] > int32(i) })
		for _, j := range members[k:] {
			if !s.seen.Test(int(j)) {
				s.seen.Set(int(j))
				s.cand = append(s.cand, j)
			}
		}
	}
	wlo, whi := (i+1)>>6, int(hi)>>6
	s.walked = whi-wlo+1 <= maxWalkWords*len(s.cand)
	if !s.walked {
		for _, j := range s.cand {
			s.seen.Clear(int(j))
		}
		return s.cand
	}
	// The walk emits exactly the collected candidates, so it refills the
	// buffer in place without growing it.
	s.cand = s.cand[:0]
	for w := wlo; w <= whi; w++ {
		word := s.seen[w]
		s.seen[w] = 0
		for word != 0 {
			s.cand = append(s.cand, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return s.cand
}

// scanRows runs the kernel over rows [lo, hi), appending the surviving
// edges to coo and returning the number of pairs tested. Each row is one
// batched edge-oracle consultation: the row's deduplicated candidates are
// collected and tested in a single HasRow call (bucket co-occurrence
// already proved each pair shares a color). The hits are emitted without a
// branch per candidate: every candidate is stored at the next free V slot
// and the length advances by its hit, so Pauli rows, where about half the
// candidates are edges, mispredict nothing. A row CollectRow did not walk
// then sorts its own hits. The COO is therefore row-major with
// every row strictly ascending — the order RowLanesToCSRInto needs to build
// sorted CSR rows without a sort. This is the one conflict-test loop every
// builder executes: a CPU worker scans its whole band in one call, a
// simulated device "SM" one row at a time.
func (b *Buckets) scanRows(o BatchEdgeOracle, lists Lists, lo, hi int, s *Scratch, coo *graph.COO) int64 {
	var calls int64
	for i := lo; i < hi; i++ {
		cand := b.CollectRow(lists, i, s)
		if len(cand) == 0 {
			continue
		}
		hits := s.hitsFor(len(cand))[:len(cand)]
		o.HasRow(i, cand, hits)
		calls += int64(len(cand))
		start := len(coo.V)
		v := slices.Grow(coo.V, len(cand))[:start+len(cand)]
		n := start
		for k, j := range cand {
			v[n] = j
			if hits[k] {
				n++
			}
		}
		coo.V = v[:n]
		if !s.walked {
			slices.Sort(coo.V[start:])
		}
		u := slices.Grow(coo.U, n-start)[:n]
		for k := start; k < n; k++ {
			u[k] = int32(i)
		}
		coo.U = u
	}
	return calls
}

// ReferenceAllPairs is the pre-bucketing construction kept as the benchmark
// and equivalence baseline: a sequential scan of all m(m−1)/2 pairs with a
// per-pair sorted-list intersection. New never builds it — every
// production builder uses the bucket kernel — but the package tests assert
// edge-set equality against it and BenchmarkConflictBuild measures the gap.
// It allocates fresh storage on every call and builds its CSR with
// graph.FromEdges, the parsers' sorting path, which shares no code with the
// builders' lane conversion. It charges the tracker as the CPU builder
// does: the edge list (8 bytes per edge) for the duration of the
// conversion, then the CSR.
func ReferenceAllPairs(o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error) {
	m := o.Len()
	var edges [][2]int32
	var st Stats
	for i := 0; i < m; i++ {
		li := lists.List(i)
		for j := i + 1; j < m; j++ {
			st.PairsTested++
			if intersectSorted(li, lists.List(j)) && o.Has(i, j) {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	release := tr.Scoped(int64(len(edges)) * 8)
	g, err := graph.FromEdges(m, edges)
	release()
	if err != nil {
		return nil, st, err
	}
	tr.Alloc(g.Bytes())
	st.HostBytes = g.Bytes()
	return &ConflictGraph{G: g, Edges: int64(len(edges))}, st, nil
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
