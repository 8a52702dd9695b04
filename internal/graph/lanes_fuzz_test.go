package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"picasso/internal/grow"
)

// FuzzRowLanesMatchFromEdges checks the lane-parallel conversion against
// FromEdges, the parsers' independent sorting path. Each input draws a
// row-major, row-ascending edge set on n ≤ 512 vertices, cuts it into 1–8
// lanes at random row boundaries (so lanes may be empty, and outnumber the
// rows), and converts it with every group count from 1 to the lane count:
// Offsets and Adj must equal FromEdges' over the same edges. A second edge
// set on half the vertices then reuses the same cursor scratch and CSR, as
// a warm arena does.
func FuzzRowLanesMatchFromEdges(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(128), int64(1))
	f.Add(uint16(3), uint8(8), uint8(255), int64(2)) // more lanes than rows
	f.Add(uint16(60), uint8(5), uint8(40), int64(3))
	f.Add(uint16(200), uint8(7), uint8(128), int64(4))
	f.Add(uint16(512), uint8(8), uint8(2), int64(5)) // mostly isolated vertices
	f.Fuzz(func(t *testing.T, n uint16, lanes, density uint8, seed int64) {
		// In-range values map to themselves; 0 folds to the top of the range.
		nn := 1 + int(n-1)%512
		w := 1 + int(lanes-1)%8
		rng := rand.New(rand.NewSource(seed))
		var cursors []int64
		var g CSR
		for _, size := range []int{nn, nn / 2} {
			checkRowLanes(t, size, w, density, rng, &cursors, &g)
		}
	})
}

// checkRowLanes draws one edge set on n vertices with edge probability
// density/255, cuts it into w lanes and compares every group count's
// conversion into g, with cursors grown like the arena's, against
// FromEdges.
func checkRowLanes(t *testing.T, n, w int, density uint8, rng *rand.Rand, cursors *[]int64, g *CSR) {
	t.Helper()
	all := &COO{N: n}
	var edges [][2]int32
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(255) < int(density) {
				all.U = append(all.U, int32(u))
				all.V = append(all.V, int32(v))
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	bounds := make([]int, w+1)
	for k := 1; k < w; k++ {
		bounds[k] = rng.Intn(n + 1)
	}
	bounds[w] = n
	slices.Sort(bounds)
	lanes := make([]COO, w)
	for k := range lanes {
		lo := sort.Search(len(all.U), func(e int) bool { return all.U[e] >= int32(bounds[k]) })
		hi := sort.Search(len(all.U), func(e int) bool { return all.U[e] >= int32(bounds[k+1]) })
		lanes[k] = COO{N: n, U: all.U[lo:hi], V: all.V[lo:hi]}
	}
	want, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for groups := 1; groups <= w; groups++ {
		*cursors = grow.Slice(*cursors, groups*n)
		got, err := RowLanesToCSRInto(lanes, groups, *cursors, g)
		if err != nil {
			t.Fatalf("n=%d lanes=%v groups=%d: %v", n, bounds, groups, err)
		}
		if got.N != n || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) {
			t.Fatalf("n=%d lanes=%v groups=%d: CSR differs from FromEdges", n, bounds, groups)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d lanes=%v groups=%d: %v", n, bounds, groups, err)
		}
	}
}

func TestRowLanesToCSRRejectsBadShapes(t *testing.T) {
	two := []COO{{N: 3}, {N: 3}}
	for _, tc := range []struct {
		name    string
		lanes   []COO
		groups  int
		cursors int
	}{
		{"no lanes", nil, 1, 3},
		{"zero groups", two, 0, 3},
		{"more groups than lanes", two, 3, 9},
		{"lanes disagree on N", []COO{{N: 3}, {N: 4}}, 1, 4},
		{"short cursors", two, 2, 5},
	} {
		if _, err := RowLanesToCSRInto(tc.lanes, tc.groups, make([]int64, tc.cursors), nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
