package backend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/par"
)

// testOracle adapts a graph.Oracle on identity ids to backend.EdgeOracle.
type testOracle struct{ o graph.Oracle }

func (t testOracle) Len() int          { return t.o.NumVertices() }
func (t testOracle) Has(i, j int) bool { return t.o.HasEdge(i, j) }

// testLists is a deterministic Lists implementation: vertex i draws L
// distinct sorted colors from [0, P) off a seeded RNG.
type testLists struct {
	n, P, L int
	flat    []int32
}

func newTestLists(n, P, L int, seed int64) *testLists {
	rng := rand.New(rand.NewSource(seed))
	tl := &testLists{n: n, P: P, L: L, flat: make([]int32, n*L)}
	perm := make([]int32, P)
	for c := range perm {
		perm[c] = int32(c)
	}
	for i := 0; i < n; i++ {
		rng.Shuffle(P, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		lst := tl.flat[i*L : (i+1)*L]
		copy(lst, perm[:L])
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
	}
	return tl
}

func (t *testLists) Len() int           { return t.n }
func (t *testLists) ListSize() int      { return t.L }
func (t *testLists) Palette() int       { return t.P }
func (t *testLists) List(i int) []int32 { return t.flat[i*t.L : (i+1)*t.L] }
func (t *testLists) Bytes() int64       { return int64(cap(t.flat)) * 4 }

// sortedEdges canonicalizes a conflict graph to a lexicographic (u<v) list.
func sortedEdges(t *testing.T, cg *ConflictGraph) [][2]int32 {
	t.Helper()
	edges := cg.G.EdgeList()
	if int64(len(edges)) != cg.Edges {
		t.Fatalf("CSR holds %d edges, ConflictGraph says %d", len(edges), cg.Edges)
	}
	return edges
}

func testBuilders(t *testing.T) map[string]ConflictBuilder {
	t.Helper()
	mk := func(name string, cfg Config) ConflictBuilder {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return map[string]ConflictBuilder{
		"sequential": mk("sequential", Config{}),
		"parallel-1": mk("parallel", Config{Workers: 1}),
		"parallel-4": mk("parallel", Config{Workers: 4}),
		"parallel-0": mk("parallel", Config{}),
		"gpu":        mk("gpu", Config{Device: gpusim.NewDevice("t", 1<<30, 4)}),
	}
}

func TestBuildersMatchAllPairsReference(t *testing.T) {
	// Every builder must produce a structurally valid conflict CSR with the
	// exact edge set of the dense all-pairs scan, across list shapes from
	// sparse palettes to full-palette (every pair shares a color) and graph
	// densities from empty to complete.
	cases := []struct {
		n, P, L int
		density float64
	}{
		{1, 1, 1, 0.5},
		{2, 2, 1, 1.0},
		{60, 8, 3, 0.5},
		{120, 15, 4, 0.3},
		{120, 4, 4, 0.9}, // L == P: all pairs conflict
		{200, 25, 5, 0.0},
		{200, 25, 5, 1.0},
		{257, 40, 6, 0.5},
	}
	for ci, tc := range cases {
		o := testOracle{graph.RandomOracle{N: tc.n, P: tc.density, Seed: uint64(ci) + 7}}
		lists := newTestLists(tc.n, tc.P, tc.L, int64(ci)*13+1)
		refCG, refStats, err := ReferenceAllPairs(o, lists, nil)
		if err != nil {
			t.Fatalf("case %d: reference: %v", ci, err)
		}
		want := sortedEdges(t, refCG)
		wantPairs := int64(tc.n) * int64(tc.n-1) / 2
		if refStats.PairsTested != wantPairs {
			t.Fatalf("case %d: reference tested %d pairs, want %d", ci, refStats.PairsTested, wantPairs)
		}
		for name, b := range testBuilders(t) {
			var tr memtrack.Tracker
			cg, st, err := b.Build(context.Background(), o, lists, &tr)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			// Monotone offsets, in-range sorted neighbours, no self loops,
			// symmetry.
			if err := cg.G.Validate(); err != nil {
				t.Fatalf("case %d %s: conflict CSR: %v", ci, name, err)
			}
			got := sortedEdges(t, cg)
			if len(got) != len(want) {
				t.Fatalf("case %d %s: %d edges, want %d", ci, name, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("case %d %s: edge %d is %v, want %v", ci, name, k, got[k], want[k])
				}
			}
			// Bucketed kernels must never consult the oracle more often
			// than the dense scan, and must ask exactly once per
			// color-sharing pair.
			if st.PairsTested > refStats.PairsTested {
				t.Errorf("case %d %s: %d oracle calls exceed all-pairs %d",
					ci, name, st.PairsTested, refStats.PairsTested)
			}
			tr.Free(st.HostBytes)
			if tr.Current() != 0 {
				t.Errorf("case %d %s: leaked %d tracked bytes", ci, name, tr.Current())
			}
		}
	}
}

func TestOracleCallCountMatchesSharingPairs(t *testing.T) {
	// The kernel's promise: exactly one oracle call per pair with
	// intersecting lists, none for the rest.
	lists := newTestLists(150, 20, 4, 3)
	var want int64
	for i := 0; i < 150; i++ {
		for j := i + 1; j < 150; j++ {
			if intersectSorted(lists.List(i), lists.List(j)) {
				want++
			}
		}
	}
	o := testOracle{graph.RandomOracle{N: 150, P: 0.5, Seed: 5}}
	for name, b := range testBuilders(t) {
		_, st, err := b.Build(context.Background(), o, lists, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.PairsTested != want {
			t.Errorf("%s: %d oracle calls, want %d sharing pairs", name, st.PairsTested, want)
		}
	}
}

func TestChunkedScanPreservesCOOOrder(t *testing.T) {
	// The parallel builder's determinism rests on this: scanning rows in
	// contiguous chunks and concatenating the per-chunk edge lists in chunk
	// order must reproduce the sequential scan's raw COO byte-for-byte
	// (row-major, bucket-discovery order within a row). Compared at the
	// kernel level — CSR conversion sorts adjacency and would mask order
	// bugs.
	const n = 300
	o := testOracle{graph.RandomOracle{N: n, P: 0.5, Seed: 11}}
	lists := newTestLists(n, 40, 6, 17)
	bk := NewBucketsIn(NewArena(), lists)

	whole := &graph.COO{N: n}
	bk.scanRows(AsBatch(o), lists, 0, n, NewScratch(n), whole)

	chunked := &graph.COO{N: n}
	for _, cut := range [][2]int{{0, 97}, {97, 201}, {201, n}} {
		part := &graph.COO{N: n}
		bk.scanRows(AsBatch(o), lists, cut[0], cut[1], NewScratch(n), part)
		chunked.U = append(chunked.U, part.U...)
		chunked.V = append(chunked.V, part.V...)
	}

	if len(whole.U) == 0 {
		t.Fatal("test instance produced no edges")
	}
	if len(whole.U) != len(chunked.U) {
		t.Fatalf("edge counts differ: %d vs %d", len(whole.U), len(chunked.U))
	}
	for k := range whole.U {
		if whole.U[k] != chunked.U[k] || whole.V[k] != chunked.V[k] {
			t.Fatalf("COO entry %d differs: (%d,%d) vs (%d,%d)",
				k, whole.U[k], whole.V[k], chunked.U[k], chunked.V[k])
		}
	}
}

func TestRegistrySelection(t *testing.T) {
	dev := gpusim.NewDevice("d", 1<<20, 1)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"", Config{Workers: 1}, "sequential"},
		{"auto", Config{Workers: 1}, "sequential"},
		{"", Config{}, "parallel"},
		{"", Config{Workers: 8}, "parallel"},
		{"", Config{Device: dev}, "gpu"},
		{"sequential", Config{Workers: 64}, "sequential"}, // explicit beats auto
	}
	for _, tc := range cases {
		b, err := New(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("New(%q, %+v): %v", tc.name, tc.cfg, err)
		}
		if b.Name() != tc.want {
			t.Errorf("New(%q, %+v) = %s, want %s", tc.name, tc.cfg, b.Name(), tc.want)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("bogus", Config{}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := New("gpu", Config{}); err == nil {
		t.Error("gpu backend without a device accepted")
	}
}

func TestNamesContainsBuiltins(t *testing.T) {
	if got, want := Names(), []string{"auto", "gpu", "parallel", "sequential"}; !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestDeviceOOMPropagates(t *testing.T) {
	o := testOracle{graph.RandomOracle{N: 400, P: 0.9, Seed: 3}}
	lists := newTestLists(400, 4, 4, 9) // full palette: every pair conflicts
	b, err := New("gpu", Config{Device: gpusim.NewDevice("tiny", 2048, 2)})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = b.Build(context.Background(), o, lists, nil)
	if err == nil {
		t.Fatal("tiny budget accepted")
	}
	var oom *gpusim.ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("error is %T: %v", err, err)
	}
}

func TestBucketsInvariants(t *testing.T) {
	lists := newTestLists(120, 16, 5, 21)
	bk := NewBucketsIn(NewArena(), lists)
	if got := int64(len(bk.Vtx)); got != 120*5 {
		t.Fatalf("index holds %d entries, want %d", got, 120*5)
	}
	// Each bucket ascending; membership mirrors the lists exactly.
	member := map[[2]int32]bool{}
	for c := 0; c < bk.P; c++ {
		bucket := bk.Vtx[bk.Off[c]:bk.Off[c+1]]
		for k, v := range bucket {
			if k > 0 && bucket[k-1] >= v {
				t.Fatalf("bucket %d not ascending: %v", c, bucket)
			}
			member[[2]int32{int32(c), v}] = true
		}
	}
	for i := 0; i < 120; i++ {
		for _, c := range lists.List(i) {
			if !member[[2]int32{c, int32(i)}] {
				t.Fatalf("vertex %d missing from bucket %d", i, c)
			}
		}
	}
	// Row weights sum to the total pair work.
	var wsum int64
	for _, w := range bk.RowWeight {
		wsum += w
	}
	if pw := bk.PairWork(); wsum != pw {
		t.Fatalf("row weights sum to %d, PairWork says %d", wsum, pw)
	}
}

func TestForRowDeduplicates(t *testing.T) {
	// CollectRow is the row scan every builder runs. Craft heavy overlap:
	// tiny palette, long lists — most pairs share many colors but must
	// surface exactly once.
	lists := newTestLists(40, 6, 4, 2)
	bk := NewBucketsIn(NewArena(), lists)
	s := NewScratch(40)
	for i := 0; i < 40; i++ {
		seen := map[int32]int{}
		for _, j := range bk.CollectRow(lists, i, s) {
			seen[j]++
		}
		for j, count := range seen {
			if count != 1 {
				t.Fatalf("row %d: vertex %d surfaced %d times", i, j, count)
			}
			if int(j) <= i {
				t.Fatalf("row %d surfaced non-upper vertex %d", i, j)
			}
			if !intersectSorted(lists.List(i), lists.List(int(j))) {
				t.Fatalf("row %d surfaced non-sharing vertex %d", i, j)
			}
		}
		// Completeness: every sharing pair appears.
		for j := i + 1; j < 40; j++ {
			if intersectSorted(lists.List(i), lists.List(j)) {
				if _, ok := seen[int32(j)]; !ok {
					t.Fatalf("row %d missed sharing vertex %d", i, j)
				}
			}
		}
	}
}

func TestWeightedBoundsBalance(t *testing.T) {
	for _, m := range []int{10, 101, 1000} {
		for _, d := range []int{1, 2, 3, 7} {
			// Triangular weights reproduce the historical all-pairs split.
			weights := make([]int64, m)
			for i := range weights {
				weights[i] = int64(m - 1 - i)
			}
			bounds := par.WeightedBounds(weights, d)
			if len(bounds) != d+1 || bounds[0] != 0 || bounds[d] != m {
				t.Fatalf("m=%d d=%d: bounds %v", m, d, bounds)
			}
			total := int64(m) * int64(m-1) / 2
			for part := 0; part < d; part++ {
				if bounds[part] > bounds[part+1] {
					t.Fatalf("m=%d d=%d: bounds not monotone: %v", m, d, bounds)
				}
				var pairs int64
				for _, w := range weights[bounds[part]:bounds[part+1]] {
					pairs += w
				}
				fair := total / int64(d)
				if fair > int64(m) && pairs > 2*fair+int64(m) {
					t.Errorf("m=%d d=%d part %d: %d pairs vs fair %d", m, d, part, pairs, fair)
				}
			}
		}
	}
}

func TestPairWorkBeatsAllPairsAtPaperRegime(t *testing.T) {
	// At the paper's operating point (P = 12.5% of n, L = 2·log10 n) the
	// bucket bound Σ|b_c|² concentrates near the L²/P collision rate —
	// 5.1% of m(m−1)/2 at n = 10000 — which is the asymptotic claim the
	// benchmark quantifies in wall-clock. Allow 50% slack for sampling
	// variance.
	n := 10000
	P, L := n/8, 8
	lists := newTestLists(n, P, L, 5)
	bk := NewBucketsIn(NewArena(), lists)
	allPairs := int64(n) * int64(n-1) / 2
	bound := int64(float64(allPairs) * 1.5 * float64(L*L) / float64(P))
	if pw := bk.PairWork(); pw > bound {
		t.Errorf("pair work %d exceeds 1.5·L²/P bound %d (all pairs %d)", pw, bound, allPairs)
	}
}

func ExampleNew() {
	b, _ := New("", Config{Workers: 1})
	fmt.Println(b.Name())
	// Output: sequential
}
