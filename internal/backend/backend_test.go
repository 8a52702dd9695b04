package backend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
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

// referenceCases are the list shapes TestBuildersMatchAllPairsReference
// checks and FuzzBuildersMatchAllPairs starts from: sparse palettes to
// full-palette (every pair shares a color), graph densities from empty to
// complete.
var referenceCases = []struct {
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
	// Few candidates over a wide id range: low rows span more bitset words
	// per candidate than CollectRow walks, top rows walk.
	{4096, 1024, 1, 0.5},
	// The same with two buckets per row, so a fallback row's candidates
	// come back out of order and the kernel must sort its hits.
	{4096, 4096, 2, 0.5},
}

func TestBuildersMatchAllPairsReference(t *testing.T) {
	for ci, tc := range referenceCases {
		checkBuildersMatchReference(t, fmt.Sprintf("case %d", ci),
			tc.n, tc.P, tc.L, tc.density, uint64(ci)+7, int64(ci)*13+1)
	}
}

// FuzzBuildersMatchAllPairs runs every builder on generated shapes against
// the all-pairs reference. Shapes are folded into n ≤ 512, 1 ≤ P ≤ 4n and
// 1 ≤ L ≤ min(P, 8), which keeps the O(n²) reference cheap per input; the
// density is one byte over 255. At n ≤ 512 the seen-bitset is at most 8
// words, so every row walks; referenceCases' n = 4096 row reaches the
// discovery-order fallback.
func FuzzBuildersMatchAllPairs(f *testing.F) {
	for ci, tc := range referenceCases {
		f.Add(uint16(tc.n), uint16(tc.P), uint8(tc.L), uint8(tc.density*255), int64(ci)*13+1)
	}
	f.Fuzz(func(t *testing.T, n, P uint16, L, density uint8, seed int64) {
		// In-range values map to themselves; n−1 wraps, so n = 0 folds to 512.
		nn := 1 + int(n-1)%512
		pp := 1 + int(P-1)%(4*nn)
		ll := 1 + int(L-1)%min(pp, 8)
		checkBuildersMatchReference(t, fmt.Sprintf("n=%d P=%d L=%d density=%d seed=%d", nn, pp, ll, density, seed),
			nn, pp, ll, float64(density)/255, uint64(seed), seed)
	})
}

// checkBuildersMatchReference requires every builder to produce a
// structurally valid conflict CSR with the exact edge set of the dense
// all-pairs scan on one shape: n vertices drawing L of P colors from
// listSeed, over a random graph of the given density from oracleSeed.
func checkBuildersMatchReference(t *testing.T, label string, n, P, L int, density float64, oracleSeed uint64, listSeed int64) {
	t.Helper()
	o := testOracle{graph.RandomOracle{N: n, P: density, Seed: oracleSeed}}
	lists := newTestLists(n, P, L, listSeed)
	refCG, refStats, err := ReferenceAllPairs(o, lists, nil)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	want := sortedEdges(t, refCG)
	wantPairs := int64(n) * int64(n-1) / 2
	if refStats.PairsTested != wantPairs {
		t.Fatalf("%s: reference tested %d pairs, want %d", label, refStats.PairsTested, wantPairs)
	}
	for name, b := range testBuilders(t) {
		var tr memtrack.Tracker
		cg, st, err := b.Build(context.Background(), o, lists, &tr)
		if err != nil {
			t.Fatalf("%s %s: %v", label, name, err)
		}
		// Monotone offsets, in-range sorted neighbours, no self loops,
		// symmetry.
		if err := cg.G.Validate(); err != nil {
			t.Fatalf("%s %s: conflict CSR: %v", label, name, err)
		}
		got := sortedEdges(t, cg)
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d edges, want %d", label, name, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s %s: edge %d is %v, want %v", label, name, k, got[k], want[k])
			}
		}
		// Bucketed kernels must never consult the oracle more often
		// than the dense scan, and must ask exactly once per
		// color-sharing pair.
		if st.PairsTested > refStats.PairsTested {
			t.Errorf("%s %s: %d oracle calls exceed all-pairs %d",
				label, name, st.PairsTested, refStats.PairsTested)
		}
		tr.Free(st.HostBytes)
		if tr.Current() != 0 {
			t.Errorf("%s %s: leaked %d tracked bytes", label, name, tr.Current())
		}
	}
}

func TestBuildersAcceptEmptyInput(t *testing.T) {
	// Zero vertices: every builder still converts one empty lane, so the
	// build returns an empty valid CSR instead of indexing a lane that was
	// never reserved, and tracks nothing beyond that CSR.
	o := testOracle{graph.RandomOracle{N: 0, P: 0.5, Seed: 1}}
	lists := newTestLists(0, 1, 1, 1)
	for name, b := range testBuilders(t) {
		var tr memtrack.Tracker
		cg, st, err := b.Build(context.Background(), o, lists, &tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cg.G.Validate(); err != nil {
			t.Fatalf("%s: conflict CSR: %v", name, err)
		}
		if cg.G.N != 0 || cg.Edges != 0 || st.PairsTested != 0 {
			t.Fatalf("%s: N=%d, %d edges, %d pairs tested; want all 0", name, cg.G.N, cg.Edges, st.PairsTested)
		}
		tr.Free(st.HostBytes)
		if tr.Current() != 0 {
			t.Errorf("%s: leaked %d tracked bytes", name, tr.Current())
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
	// order must reproduce the sequential scan's raw COO byte-for-byte. The
	// CPU builder's CSR conversion does not sort, so both COOs must also be
	// row-major with every row strictly ascending: walked rows and the
	// discovery-order fallback rows of the P = n, L = 2 shape alike.
	for _, tc := range []struct {
		n, P, L int
		cuts    []int
	}{
		{300, 40, 6, []int{0, 97, 201, 300}},
		{4096, 4096, 2, []int{0, 1365, 2731, 4096}},
	} {
		n := tc.n
		o := testOracle{graph.RandomOracle{N: n, P: 0.5, Seed: 11}}
		lists := newTestLists(n, tc.P, tc.L, 17)
		bk := NewBucketsIn(NewArena(), lists)

		whole := &graph.COO{N: n}
		bk.scanRows(AsBatch(o), lists, 0, n, NewScratch(n), whole)

		chunked := &graph.COO{N: n}
		for c := 1; c < len(tc.cuts); c++ {
			part := &graph.COO{N: n}
			bk.scanRows(AsBatch(o), lists, tc.cuts[c-1], tc.cuts[c], NewScratch(n), part)
			chunked.U = append(chunked.U, part.U...)
			chunked.V = append(chunked.V, part.V...)
		}

		if len(whole.U) == 0 {
			t.Fatalf("n=%d: test instance produced no edges", n)
		}
		if len(whole.U) != len(chunked.U) {
			t.Fatalf("n=%d: edge counts differ: %d vs %d", n, len(whole.U), len(chunked.U))
		}
		for k := range whole.U {
			if whole.U[k] != chunked.U[k] || whole.V[k] != chunked.V[k] {
				t.Fatalf("n=%d: COO entry %d differs: (%d,%d) vs (%d,%d)",
					n, k, whole.U[k], whole.V[k], chunked.U[k], chunked.V[k])
			}
		}
		for name, coo := range map[string]*graph.COO{"whole": whole, "chunked": chunked} {
			for k := 1; k < len(coo.U); k++ {
				if coo.U[k] < coo.U[k-1] || coo.U[k] == coo.U[k-1] && coo.V[k] <= coo.V[k-1] {
					t.Fatalf("n=%d %s: COO entry %d (%d,%d) does not follow (%d,%d)",
						n, name, k, coo.U[k], coo.V[k], coo.U[k-1], coo.V[k-1])
				}
			}
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
	// A device runs out in one of two places: the 2 KiB one cannot hold the
	// input (lists, bucket index), and the 64 KiB one holds the input and
	// the offset counters but its edge list overflows mid-kernel, Algorithm
	// 3's OOM. One worker makes the overflow point, and so the message,
	// deterministic. The failed build leaves its lanes aborted mid-scan: a
	// roomy build of the same shape on the same arena must still match a
	// fresh arena's.
	for _, tc := range []struct {
		n, P, L  int
		density  float64
		capacity int64
		workers  int
		want     string
	}{
		// Full palette: every pair conflicts.
		{400, 4, 4, 0.9, 2048, 2, "device input allocation: gpusim: tiny out of memory: requested 16040 bytes, 2048 free"},
		{300, 40, 6, 0.5, 64 << 10, 1, "gpusim: tiny out of memory: requested 46024 bytes, 46008 free"},
	} {
		o := testOracle{graph.RandomOracle{N: tc.n, P: tc.density, Seed: 3}}
		lists := newTestLists(tc.n, tc.P, tc.L, 9)
		arena := NewArena()
		b, err := New("gpu", Config{Device: gpusim.NewDevice("tiny", tc.capacity, tc.workers), Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = b.Build(context.Background(), o, lists, nil)
		var oom *gpusim.ErrOutOfMemory
		if !errors.As(err, &oom) || err.Error() != tc.want {
			t.Fatalf("%d bytes: error %T %v, want %q", tc.capacity, err, err, tc.want)
		}
		roomy := func(a *Arena) ConflictBuilder {
			b, err := New("gpu", Config{Device: gpusim.NewDevice("roomy", 1<<30, tc.workers), Arena: a})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		requireSameAsFresh(t, fmt.Sprintf("after the %d-byte OOM", tc.capacity), roomy(NewArena()), roomy(arena), o, lists)
	}
}

// TestConcurrentDeviceBuildsReportOwnPeak holds a gpu build's
// DevicePeakBytes to its own allocations. Alone on a fresh device a build
// reports the device's peak. Two builds of different shapes sharing a
// device large enough that neither the edge-list clamp nor CSR placement
// depends on the other then report, round after round of concurrent
// builds, exactly what each reports alone.
func TestConcurrentDeviceBuildsReportOwnPeak(t *testing.T) {
	type input struct {
		o     EdgeOracle
		lists Lists
		alone int64
	}
	var inputs []input
	for k, sh := range []struct{ n, P, L int }{{1500, 60, 6}, {900, 30, 5}} {
		in := input{
			o:     testOracle{graph.RandomOracle{N: sh.n, P: 0.5, Seed: uint64(k) + 1}},
			lists: newTestLists(sh.n, sh.P, sh.L, int64(k)+5),
		}
		dev := gpusim.NewDevice("alone", 1<<40, 2)
		b, err := New("gpu", Config{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := b.Build(context.Background(), in.o, in.lists, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.OnDevice || st.DevicePeakBytes != dev.Peak() {
			t.Fatalf("shape %d alone: on device %v, peak %d, device peak %d", k, st.OnDevice, st.DevicePeakBytes, dev.Peak())
		}
		in.alone = st.DevicePeakBytes
		inputs = append(inputs, in)
	}
	shared := gpusim.NewDevice("shared", 1<<40, 2)
	builders := make([]ConflictBuilder, len(inputs))
	for k := range builders {
		b, err := New("gpu", Config{Device: shared})
		if err != nil {
			t.Fatal(err)
		}
		builders[k] = b
	}
	peaks := make([]int64, len(inputs))
	errs := make([]error, len(inputs))
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		for k, in := range inputs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var st Stats
				_, st, errs[k] = builders[k].Build(context.Background(), in.o, in.lists, nil)
				peaks[k] = st.DevicePeakBytes
			}()
		}
		wg.Wait()
		for k, in := range inputs {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			if peaks[k] != in.alone {
				t.Fatalf("round %d: shape %d reported device peak %d beside a concurrent build, %d alone", round, k, peaks[k], in.alone)
			}
		}
	}
	if shared.Used() != 0 {
		t.Fatalf("%d device bytes left allocated", shared.Used())
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
	// surface exactly once. 40 vertices fit one bitset word, so every row
	// is walked and must come back strictly ascending.
	lists := newTestLists(40, 6, 4, 2)
	bk := NewBucketsIn(NewArena(), lists)
	s := NewScratch(40)
	for i := 0; i < 40; i++ {
		seen := map[int32]int{}
		row := bk.CollectRow(lists, i, s)
		for k, j := range row {
			if k > 0 && row[k-1] >= j {
				t.Fatalf("row %d not strictly ascending: %v", i, row)
			}
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
