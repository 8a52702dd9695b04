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

// The color stage reads lists the fixed-color pass has already struck
// (colorLists.prune). The references below are the stage as it was when it
// read the whole lists and skipped the slots a forbidden mask marks; each
// keeps its own lists, assignment and bookkeeping, so it shares no state
// with the production code and exists only to pin its output.

// referenceDynamic is Algorithm 2 with the neighbor loop it had before
// live-list signatures: every neighbor passes an assignment and
// bucket-membership guard, then a linear scan of its list that strikes the
// color by swap-with-last.
func referenceDynamic(gc *graph.CSR, cl *colorLists, conflicted []int32, forbidden []bool, bal *classBalance, base int32, rng *rand.Rand) (assign, failed []int32, colored int) {
	lists := make([][]int32, cl.n)
	for _, v := range conflicted {
		for k, c := range cl.list(int(v)) {
			if forbidden == nil || !forbidden[int(v)*cl.L+k] {
				lists[v] = append(lists[v], c)
			}
		}
	}
	assign = unassigned(cl.n)
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
			c = lst[referenceSmallestSlot(lst, nil, bal, base, rng)]
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

// referenceStatic is the static-order colorer over the whole lists: in the
// strategy's order, each vertex takes the first color of its list that is
// neither forbidden nor held by a colored conflict neighbor — or, with a
// class table, the allowed one whose class is smallest.
func referenceStatic(gc *graph.CSR, cl *colorLists, conflicted []int32, forbidden []bool, strategy ListStrategy, bal *classBalance, base int32, rng *rand.Rand) (assign, failed []int32, colored int) {
	order := slices.Clone(conflicted)
	switch strategy {
	case StaticLargest:
		sortByConflictDegreeDesc(gc, order)
	case StaticRandom:
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	assign = unassigned(cl.n)
	for _, v := range order {
		taken := map[int32]bool{}
		for _, u := range gc.Neighbors(int(v)) {
			if c := assign[u]; c != -1 {
				taken[c] = true
			}
		}
		lst := cl.list(int(v))
		allowed := make([]bool, len(lst))
		for k, c := range lst {
			allowed[k] = (forbidden == nil || !forbidden[int(v)*cl.L+k]) && !taken[c]
		}
		k := -1
		if bal != nil {
			k = referenceSmallestSlot(lst, allowed, bal, base, rng)
		} else {
			k = slices.Index(allowed, true)
		}
		if k < 0 {
			failed = append(failed, v)
			continue
		}
		if bal != nil {
			bal.note(base + lst[k])
		}
		assign[v] = lst[k]
		colored++
	}
	return assign, failed, colored
}

// referenceDirectPick is the unconflicted vertex's pick over its whole list
// lst, whose slot k is forbidden when forbidden[k] (nil = none): the
// allowed slot with the smallest class under a class table, else a uniform
// draw among the allowed slots. Returns the slot, or -1 when none is
// allowed.
func referenceDirectPick(lst []int32, forbidden []bool, bal *classBalance, base int32, rng *rand.Rand) int {
	allowed := make([]bool, len(lst))
	for k := range lst {
		allowed[k] = forbidden == nil || !forbidden[k]
	}
	if bal != nil {
		return referenceSmallestSlot(lst, allowed, bal, base, rng)
	}
	if forbidden == nil {
		return rng.Intn(len(lst))
	}
	var slots []int
	for k, ok := range allowed {
		if ok {
			slots = append(slots, k)
		}
	}
	if len(slots) == 0 {
		return -1
	}
	return slots[rng.Intn(len(slots))]
}

// referenceSmallestSlot is the equitable pick: among the allowed slots of
// lst (nil = all), the one whose global class base + color is smallest,
// ties uniform at random; -1 when none is allowed.
func referenceSmallestSlot(lst []int32, allowed []bool, bal *classBalance, base int32, rng *rand.Rand) int {
	pick, ties := -1, 0
	var best int32
	for k, c := range lst {
		if allowed != nil && !allowed[k] {
			continue
		}
		cnt := bal.count(base + c)
		switch {
		case pick == -1 || cnt < best:
			pick, best, ties = k, cnt, 1
		case cnt == best:
			ties++
			if rng.Intn(ties) == 0 {
				pick = k
			}
		}
	}
	return pick
}

func unassigned(n int) []int32 {
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	return assign
}

// colorStageInput is one generated color-stage input: n vertices drawing L
// of P colors (whole, never pruned or struck), the conflict graph the sequential
// builder finds for them over G(n, density/255), the conflict vertices in
// ascending order as the engine passes them, and the fixed-color pass's
// mask. mask%3 selects no mask, a random one (each slot with probability
// 1/4), or a random one that also marks one conflict vertex's whole list.
// equitable adds a class table over a random base with small random class
// sizes; balance hands each side its own copy.
type colorStageInput struct {
	label      string
	whole      *colorLists
	gc         *graph.CSR
	conflicted []int32
	forbidden  []bool
	base       int32
	counts     []int32
	seed       int64
}

func genColorStage(t *testing.T, n, P, L int, density, mask uint8, equitable bool, seed int64) *colorStageInput {
	t.Helper()
	in := &colorStageInput{
		label: fmt.Sprintf("n=%d P=%d L=%d density=%d mask=%d equitable=%v seed=%d", n, P, L, density, mask%3, equitable, seed),
		seed:  seed,
	}
	gen := rand.New(rand.NewSource(seed))
	cl := assignRandomLists(n, P, L, gen, NewArena())
	in.whole = cl.clone()
	bld, err := backend.New("sequential", backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := graph.RandomOracle{N: n, P: float64(density) / 255, Seed: uint64(seed)}
	conf, _, err := bld.Build(context.Background(), newEdgeOracle(o, nil, true, NewArena()), in.whole, nil)
	if err != nil {
		t.Fatalf("%s: %v", in.label, err)
	}
	in.gc = conf.G
	for v := 0; v < n; v++ {
		if in.gc.Degree(v) > 0 {
			in.conflicted = append(in.conflicted, int32(v))
		}
	}
	if mask%3 != 0 {
		in.forbidden = make([]bool, n*L)
		for k := range in.forbidden {
			in.forbidden[k] = gen.Intn(4) == 0
		}
		if mask%3 == 2 && len(in.conflicted) > 0 {
			v := int(in.conflicted[gen.Intn(len(in.conflicted))])
			for k := 0; k < L; k++ {
				in.forbidden[v*L+k] = true
			}
		}
	}
	if equitable {
		in.base = int32(gen.Intn(P))
		in.counts = make([]int32, int(in.base)+P)
		for k := range in.counts {
			in.counts[k] = int32(gen.Intn(4))
		}
	}
	return in
}

// struck returns the lists as the engine hands them to the color stage:
// a copy of the whole lists with the mask's slots pruned (no prune without
// a mask, as in a one-shot run). The stage strikes its copy in place, so
// the whole lists the references read stay whole.
func (in *colorStageInput) struck() *colorLists {
	cl := in.whole.clone()
	if in.forbidden != nil {
		cl.prune(in.forbidden)
	}
	return cl
}

// clone copies the lists, slots and live lengths, into storage of their own.
func (cl *colorLists) clone() *colorLists {
	return &colorLists{n: cl.n, P: cl.P, L: cl.L, flat: slices.Clone(cl.flat), live: slices.Clone(cl.live)}
}

func (in *colorStageInput) balance() *classBalance {
	if in.counts == nil {
		return nil
	}
	return &classBalance{counts: slices.Clone(in.counts)}
}

// rngs returns the production and reference random streams, equal.
func (in *colorStageInput) rngs() (*rand.Rand, *rand.Rand) {
	return rand.New(rand.NewSource(in.seed)), rand.New(rand.NewSource(in.seed))
}

// checkColorStageMatchesReference generates one color-stage input from seed
// and requires the production stage on the struck lists, without a mask,
// to agree with the references on the whole lists and the mask: the
// unconflicted pick over every vertex in turn (pickDirect, noting each pick
// in the class table as iterate does), then the conflict colorer strategy
// selects (strategy%4: Algorithm 2, or the natural, largest or random
// static order) — the same assignment, the same failed vertices in the
// same order, the same colored count and the same next RNG draw.
func checkColorStageMatchesReference(t *testing.T, n, P, L int, density, mask, strategy uint8, equitable bool, seed int64) {
	t.Helper()
	in := genColorStage(t, n, P, L, density, mask, equitable, seed)
	cl := in.struck()

	gotRNG, wantRNG := in.rngs()
	gotBal, wantBal := in.balance(), in.balance()
	for i := 0; i < n; i++ {
		lst := cl.list(i)
		got := pickDirect(lst, gotBal, in.base, gotRNG)
		var off []bool
		if in.forbidden != nil {
			off = in.forbidden[i*L : (i+1)*L]
		}
		whole := in.whole.list(i)
		want := referenceDirectPick(whole, off, wantBal, in.base, wantRNG)
		if (got < 0) != (want < 0) || got >= 0 && lst[got] != whole[want] {
			t.Fatalf("%s: vertex %d direct pick slot %d of %v, reference slot %d of %v", in.label, i, got, lst, want, whole)
		}
		if got >= 0 && gotBal != nil {
			gotBal.note(in.base + lst[got])
			wantBal.note(in.base + whole[want])
		}
	}
	if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
		t.Fatalf("%s: after the direct picks, next RNG draw %d, reference %d", in.label, g, w)
	}

	strat := []ListStrategy{DynamicBuckets, StaticNatural, StaticLargest, StaticRandom}[strategy%4]
	label := fmt.Sprintf("%s strategy=%s", in.label, strat)
	gotRNG, wantRNG = in.rngs()
	var got *listColorResult
	var wantAssign, wantFailed []int32
	var wantColored int
	if strat == DynamicBuckets {
		got = colorConflictDynamic(in.gc, cl, in.conflicted, in.balance(), in.base, gotRNG, NewArena())
		wantAssign, wantFailed, wantColored = referenceDynamic(in.gc, in.whole, in.conflicted, in.forbidden, in.balance(), in.base, wantRNG)
	} else {
		got = colorConflictStatic(in.gc, cl, in.conflicted, strat, in.balance(), in.base, gotRNG, NewArena())
		wantAssign, wantFailed, wantColored = referenceStatic(in.gc, in.whole, in.conflicted, in.forbidden, strat, in.balance(), in.base, wantRNG)
	}
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

// FuzzColorStageMatchesReference pins the color stage on struck lists to
// the references on masked whole lists. The corpus covers L = 1, 9, 64, 65
// and 128 with P ≥ 2L and P > 64, so colors alias modulo 64, under each
// mask mode, each conflict colorer, and the equitable class table off and
// on. Fuzzed shapes fold into n ≤ 256, 1 ≤ L ≤ 128 and L ≤ P < 1024.
func FuzzColorStageMatchesReference(f *testing.F) {
	for ri, L := range []int{1, 9, 64, 65, 128} {
		P := max(2*L, 65) + ri
		for mask := uint8(0); mask < 3; mask++ {
			for strategy := uint8(0); strategy < 4; strategy++ {
				for _, equitable := range []bool{false, true} {
					f.Add(uint16(150), uint16(P), uint8(L), uint8(200), mask, strategy, equitable, int64(ri)*7+int64(mask)+1)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, n, P uint16, L, density, mask, strategy uint8, equitable bool, seed int64) {
		// In-range values map to themselves; n−1 and L−1 wrap, so 0 folds
		// to the largest size.
		nn := 1 + int(n-1)%256
		ll := 1 + int(L-1)%128
		pp := max(int(P)%1024, ll)
		checkColorStageMatchesReference(t, nn, pp, ll, density, mask, strategy, equitable, seed)
	})
}

// TestColorListsPrune pins prune: each list keeps exactly its unmarked
// slots, in order and so ascending, including lists struck to nothing and
// lists struck not at all, while ListSize and Bytes — the tracked and
// device-shipped list charges — keep the whole lists' L and m·L·4. The next
// assignment on the same arena hands back whole lists.
func TestColorListsPrune(t *testing.T) {
	const m, P, L = 300, 40, 7
	gen := rand.New(rand.NewSource(3))
	ar := NewArena()
	cl := assignRandomLists(m, P, L, gen, ar)
	whole := slices.Clone(cl.flat)
	mask := make([]bool, m*L)
	for i := 0; i < m; i++ {
		for k := 0; k < L; k++ {
			switch i % 3 {
			case 0: // struck to nothing
				mask[i*L+k] = true
			case 1:
				mask[i*L+k] = gen.Intn(2) == 0
			} // case 2: struck not at all
		}
	}
	cl.prune(mask)
	if cl.ListSize() != L || cl.Bytes() != m*L*4 || cl.Len() != m || cl.Palette() != P {
		t.Fatalf("after prune: ListSize %d, Bytes %d, Len %d, Palette %d; want %d, %d, %d, %d",
			cl.ListSize(), cl.Bytes(), cl.Len(), cl.Palette(), L, m*L*4, m, P)
	}
	for i := 0; i < m; i++ {
		var want []int32
		for k := 0; k < L; k++ {
			if !mask[i*L+k] {
				want = append(want, whole[i*L+k])
			}
		}
		got := cl.List(i)
		if !slices.Equal(got, want) || len(cl.list(i)) != len(want) {
			t.Fatalf("vertex %d: pruned list %v, want %v (whole %v)", i, got, want, whole[i*L:(i+1)*L])
		}
		if i%3 == 0 && len(got) != 0 || i%3 == 2 && len(got) != L {
			t.Fatalf("vertex %d: live length %d", i, len(got))
		}
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] {
				t.Fatalf("vertex %d: pruned list %v not ascending", i, got)
			}
		}
	}
	cl = assignRandomLists(m, P, L, gen, ar)
	for i := 0; i < m; i++ {
		if len(cl.List(i)) != L {
			t.Fatalf("reassigned vertex %d holds %d colors, want %d", i, len(cl.List(i)), L)
		}
	}
}
