package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"picasso/internal/backend"
	"picasso/internal/bucket"
	"picasso/internal/graph"
)

// referenceDynamic is Algorithm 2 with the neighbor loop it had before
// live-list signatures: every neighbor passes an assignment and
// bucket-membership guard, then a linear scan of its list that strikes the
// color by swap-with-last. It keeps its own lists, assignment and bucket
// array, so it shares no state with colorConflictDynamic; it exists only to
// pin that function's output.
func referenceDynamic(gc *graph.CSR, cl *colorLists, conflicted []int32, forbidden []bool, bal *classBalance, base int32, rng *rand.Rand) (assign, failed []int32, colored int) {
	lists := make([][]int32, cl.n)
	for _, v := range conflicted {
		for k, c := range cl.list(int(v)) {
			if forbidden == nil || !forbidden[int(v)*cl.L+k] {
				lists[v] = append(lists[v], c)
			}
		}
	}
	assign = make([]int32, cl.n)
	for i := range assign {
		assign[i] = -1
	}
	b := bucket.New(cl.n, cl.L)
	for _, v := range conflicted {
		if len(lists[v]) == 0 {
			failed = append(failed, v)
			continue
		}
		b.Insert(v, len(lists[v]))
	}
	for b.Len() > 0 {
		v := b.PickFromMin(rng.Intn(b.MinBucketSize()))
		lst := lists[v]
		var c int32
		if bal != nil {
			c = lst[bal.pickSlot(lst, base, nil, 0, rng)]
			bal.note(base + c)
		} else {
			c = lst[rng.Intn(len(lst))]
		}
		assign[v] = c
		b.Remove(v)
		colored++
		for _, u := range gc.Neighbors(int(v)) {
			if assign[u] != -1 || b.Key(u) < 0 {
				continue
			}
			i := slices.Index(lists[u], c)
			if i < 0 {
				continue
			}
			last := len(lists[u]) - 1
			lists[u][i] = lists[u][last]
			lists[u] = lists[u][:last]
			if last == 0 {
				b.Remove(u)
				failed = append(failed, u)
				continue
			}
			b.Update(u, last)
		}
	}
	return assign, failed, colored
}

// checkDynamicMatchesReference generates one Algorithm 2 input from seed
// and requires colorConflictDynamic and referenceDynamic to agree on it:
// the same assignment, the same failed vertices in the same order, the same
// colored count and the same next RNG draw. The input is n vertices drawing
// L of P colors, the conflict graph the sequential builder finds for them
// over G(n, density/255), and the conflict vertices in ascending order, as
// the engine passes them. mask%3 selects no forbidden mask, a random one
// (each slot with probability 1/4), or a random one that also masks one
// conflict vertex's whole list. equitable adds a class table over a random
// base with small random class sizes; each side gets its own copy.
func checkDynamicMatchesReference(t *testing.T, n, P, L int, density, mask uint8, equitable bool, seed int64) {
	t.Helper()
	label := fmt.Sprintf("n=%d P=%d L=%d density=%d mask=%d equitable=%v seed=%d", n, P, L, density, mask%3, equitable, seed)
	gen := rand.New(rand.NewSource(seed))
	ar := NewArena()
	cl := assignRandomLists(n, P, L, gen, ar)
	bld, err := backend.New("sequential", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := graph.RandomOracle{N: n, P: float64(density) / 255, Seed: uint64(seed)}
	conf, _, err := bld.Build(context.Background(), newEdgeOracle(o, nil, true, ar), cl, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gc := conf.G
	var conflicted []int32
	for v := 0; v < n; v++ {
		if gc.Degree(v) > 0 {
			conflicted = append(conflicted, int32(v))
		}
	}
	var forbidden []bool
	if mask%3 != 0 {
		forbidden = make([]bool, n*L)
		for k := range forbidden {
			forbidden[k] = gen.Intn(4) == 0
		}
		if mask%3 == 2 && len(conflicted) > 0 {
			v := int(conflicted[gen.Intn(len(conflicted))])
			for k := 0; k < L; k++ {
				forbidden[v*L+k] = true
			}
		}
	}
	var base int32
	var counts []int32
	if equitable {
		base = int32(gen.Intn(P))
		counts = make([]int32, int(base)+P)
		for k := range counts {
			counts[k] = int32(gen.Intn(4))
		}
	}
	balance := func() *classBalance {
		if counts == nil {
			return nil
		}
		return &classBalance{counts: slices.Clone(counts)}
	}

	gotRNG := rand.New(rand.NewSource(seed))
	wantRNG := rand.New(rand.NewSource(seed))
	got := colorConflictDynamic(gc, cl, conflicted, forbidden, balance(), base, gotRNG, ar)
	wantAssign, wantFailed, wantColored := referenceDynamic(gc, cl, conflicted, forbidden, balance(), base, wantRNG)
	for v := range wantAssign {
		if got.assign[v] != wantAssign[v] {
			t.Fatalf("%s: vertex %d assigned %d, reference %d", label, v, got.assign[v], wantAssign[v])
		}
	}
	if !slices.Equal(got.failed, wantFailed) {
		t.Fatalf("%s: failed %v, reference %v", label, got.failed, wantFailed)
	}
	if got.colored != wantColored {
		t.Fatalf("%s: colored %d, reference %d", label, got.colored, wantColored)
	}
	if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
		t.Fatalf("%s: next RNG draw %d, reference %d", label, g, w)
	}
}

// FuzzDynamicListColorMatchesReference pins colorConflictDynamic to the
// reference neighbor loop on generated inputs. The corpus covers L = 1, 9,
// 64, 65 and 128 with P ≥ 2L and P > 64, so colors alias modulo 64, under
// each mask mode with the equitable class table off and on. Fuzzed shapes
// fold into n ≤ 256, 1 ≤ L ≤ 128 and L ≤ P < 1024.
func FuzzDynamicListColorMatchesReference(f *testing.F) {
	for ri, L := range []int{1, 9, 64, 65, 128} {
		P := max(2*L, 65) + ri
		for mask := uint8(0); mask < 3; mask++ {
			for _, equitable := range []bool{false, true} {
				f.Add(uint16(150), uint16(P), uint8(L), uint8(200), mask, equitable, int64(ri)*7+int64(mask)+1)
			}
		}
	}
	f.Fuzz(func(t *testing.T, n, P uint16, L, density, mask uint8, equitable bool, seed int64) {
		// In-range values map to themselves; n−1 and L−1 wrap, so 0 folds
		// to the largest size.
		nn := 1 + int(n-1)%256
		ll := 1 + int(L-1)%128
		pp := max(int(P)%1024, ll)
		checkDynamicMatchesReference(t, nn, pp, ll, density, mask, equitable, seed)
	})
}
