package bucket

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestBuildIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	colors := make([]int32, 1000)
	for i := range colors {
		colors[i] = int32(rng.Intn(50) * 2) // sparse ids: every odd color empty
	}
	ix, err := BuildIndex(colors)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.NumVertices() != len(colors) {
		t.Fatalf("NumVertices = %d, want %d", ix.NumVertices(), len(colors))
	}
	if got := ix.Colors(); !reflect.DeepEqual(got, colors) {
		t.Fatal("Colors() does not reconstruct the input coloring")
	}
	// Buckets hold exactly the vertices of their color, in ascending order.
	for c := int32(0); int(c) < ix.NumColors(); c++ {
		prev := int32(-1)
		for _, v := range ix.Bucket(c) {
			if colors[v] != c {
				t.Fatalf("bucket %d holds vertex %d of color %d", c, v, colors[v])
			}
			if v <= prev {
				t.Fatalf("bucket %d not in ascending vertex order", c)
			}
			prev = v
		}
	}
}

// bruteIndex is the index by definition: bucket c lists, in visiting order,
// the visited vertices colored base+c — each v of ids, or each v of
// [lo, hi) when ids is nil.
func bruteIndex(colors, ids []int32, lo, hi int, base int32, P int) *Index {
	visit := ids
	if ids == nil {
		for v := lo; v < hi; v++ {
			visit = append(visit, int32(v))
		}
	}
	ix := &Index{Off: []int64{0}, Vtx: []int32{}}
	for c := int32(0); c < int32(P); c++ {
		for _, v := range visit {
			if colors[v] == base+c {
				ix.Vtx = append(ix.Vtx, v)
			}
		}
		ix.Off = append(ix.Off, int64(len(ix.Vtx)))
	}
	return ix
}

// TestRebuildMatchesBruteForce pins the one counting sort behind every
// color index — the fixed-color pass's windows and BuildIndex's finished
// colorings — to bruteIndex. The cases cover ranges starting past 0, id
// subsets in non-ascending order (and an empty one), an empty range,
// windows above 0, and uncolored and out-of-window colors. Every case
// rebuilds an index that first held a wider window over every vertex, so
// stale counts or entries in reused storage show. BuildIndex runs on
// sparse color ids.
func TestRebuildMatchesBruteForce(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(5))
	colors := make([]int32, n)
	for v := range colors {
		colors[v] = int32(rng.Intn(61)) - 1 // −1 (uncolored) through 59
	}
	subset := []int32{399, 3, 4, 9, 41, 40, 200, 298, 0}
	var ix Index
	for _, c := range []struct {
		ids    []int32
		lo, hi int
		base   int32
		P      int
	}{
		{nil, 0, n, 0, 60},
		{nil, 37, 251, 0, 20},
		{nil, 100, n, 17, 11},
		{nil, 50, 50, 3, 4},
		{subset, 0, 0, 5, 30},
		{subset, 0, 0, 0, 1},
		{[]int32{}, 0, 0, 0, 7},
	} {
		ix.Rebuild(colors, nil, 0, n, 0, 64)
		ix.Rebuild(colors, c.ids, c.lo, c.hi, c.base, c.P)
		want := bruteIndex(colors, c.ids, c.lo, c.hi, c.base, c.P)
		if !slices.Equal(ix.Off, want.Off) || !slices.Equal(ix.Vtx, want.Vtx) {
			t.Fatalf("ids %v range [%d, %d) window [%d, +%d): index (Off %v, Vtx %v), want (Off %v, Vtx %v)",
				c.ids, c.lo, c.hi, c.base, c.P, ix.Off, ix.Vtx, want.Off, want.Vtx)
		}
		if ix.NumColors() != c.P || ix.Bytes() != int64(c.P+1)*8+int64(len(want.Vtx))*4 {
			t.Fatalf("ids %v range [%d, %d) window [%d, +%d): %d colors, %d bytes",
				c.ids, c.lo, c.hi, c.base, c.P, ix.NumColors(), ix.Bytes())
		}
	}

	sparse := make([]int32, 300)
	for v := range sparse {
		sparse[v] = int32(rng.Intn(25) * 4) // every color not a multiple of 4 empty
	}
	got, err := BuildIndex(sparse)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteIndex(sparse, nil, 0, len(sparse), 0, int(slices.Max(sparse))+1)
	if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Vtx, want.Vtx) {
		t.Fatalf("BuildIndex on sparse ids: (Off %v, Vtx %v), want (Off %v, Vtx %v)", got.Off, got.Vtx, want.Off, want.Vtx)
	}
}

// TestIndexGroupsMatchesColorGroups pins the contract the server's
// rehydration path relies on: Index.Groups() over a coloring is exactly the
// group partition picasso.ColorGroups produces — ascending color order,
// empty buckets skipped, vertices ascending within a group.
func TestIndexGroupsMatchesColorGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	colors := make([]int32, 500)
	for i := range colors {
		colors[i] = int32(rng.Intn(60) * 3)
	}
	ix, err := BuildIndex(colors)
	if err != nil {
		t.Fatal(err)
	}
	want := colorGroupsReference(colors)
	if got := ix.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatal("Index.Groups() differs from the reference group partition")
	}
}

// colorGroupsReference mirrors picasso.ColorGroups (reimplemented here to
// avoid an import cycle: the root package imports this one).
func colorGroupsReference(colors []int32) [][]int {
	maxC := int32(-1)
	for _, c := range colors {
		if c > maxC {
			maxC = c
		}
	}
	byColor := make([][]int, maxC+1)
	for v, c := range colors {
		byColor[c] = append(byColor[c], v)
	}
	out := make([][]int, 0, len(byColor))
	for _, g := range byColor {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

func TestBuildIndexRejectsUncolored(t *testing.T) {
	if _, err := BuildIndex([]int32{0, 1, -1, 2}); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
}

func TestBuildIndexEmpty(t *testing.T) {
	ix, err := BuildIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.NumColors() != 0 || ix.NumVertices() != 0 || len(ix.Groups()) != 0 {
		t.Fatalf("empty coloring produced a non-empty index: %+v", ix)
	}
}

func TestValidateRejectsCorruptIndexes(t *testing.T) {
	bad := []*Index{
		{Off: nil, Vtx: nil},                         // no offsets at all
		{Off: []int64{1, 2}, Vtx: []int32{0, 1}},     // does not start at 0
		{Off: []int64{0, 2, 1}, Vtx: []int32{0}},     // decreasing
		{Off: []int64{0, 1}, Vtx: []int32{0, 1}},     // ends short of Vtx
		{Off: []int64{0, 2}, Vtx: []int32{0, 0}},     // duplicate vertex
		{Off: []int64{0, 2}, Vtx: []int32{0, 7}},     // out-of-range vertex
		{Off: []int64{0, 1, 2}, Vtx: []int32{1, -1}}, // negative vertex
	}
	for i, ix := range bad {
		if err := ix.Validate(); err == nil {
			t.Fatalf("corrupt index %d validated", i)
		}
	}
}
