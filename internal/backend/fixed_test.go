package backend

import (
	"context"
	"slices"
	"sync"
	"testing"

	"picasso/internal/bucket"
	"picasso/internal/graph"
)

// crossTestOracle adjacency-tests active-local rows (offset into the global
// graph) against global fixed ids — the same shape the streaming engine
// wires up. With row set it answers the whole bucket into hits first, the
// way an oracle with a batched row kernel does.
type crossTestOracle struct {
	o      graph.Oracle
	offset int
	row    bool
}

func (c crossTestOracle) FirstCross(i int, fixed []int32, hits []bool) int {
	if c.row {
		for k, f := range fixed {
			hits[k] = c.o.HasEdge(c.offset+i, int(f))
		}
		return slices.Index(hits[:len(fixed)], true)
	}
	for k, f := range fixed {
		if c.o.HasEdge(c.offset+i, int(f)) {
			return k
		}
	}
	return -1
}

// pairLog is a graph.Oracle that counts every pair it is asked about.
type pairLog struct {
	graph.Oracle
	mu    sync.Mutex
	asked map[[2]int]int
}

func (p *pairLog) HasEdge(u, v int) bool {
	p.mu.Lock()
	p.asked[[2]int{u, v}]++
	p.mu.Unlock()
	return p.Oracle.HasEdge(u, v)
}

// fixedFixture: vertices [0, nFixed) are the colored frontier, whose
// colors it returns, and vertices [nFixed, nFixed+nActive) are the active
// shard with candidate lists.
func fixedFixture(nFixed, nActive, P, L int) (graph.Oracle, []int32, *testLists) {
	o := graph.RandomOracle{N: nFixed + nActive, P: 0.5, Seed: 77}
	colors := make([]int32, nFixed)
	for v := range colors {
		colors[v] = int32((v * 7) % P)
	}
	return o, colors, newTestLists(nActive, P, L, 23)
}

// fixedIndex indexes the whole frontier over the palette window [0, P)
// through the builder the streaming engine uses.
func fixedIndex(colors []int32, P int) *bucket.Index {
	ix := &bucket.Index{}
	ix.Rebuild(colors, nil, 0, len(colors), 0, P)
	return ix
}

// bruteForbidden computes the reference mask: slot k of active row i is
// forbidden iff some frontier vertex with that color is adjacent to i.
func bruteForbidden(o graph.Oracle, offset int, colors []int32, lists Lists) []bool {
	L := lists.ListSize()
	want := make([]bool, lists.Len()*L)
	for i := 0; i < lists.Len(); i++ {
		for k, c := range lists.List(i) {
			for f := range colors {
				if colors[f] == c && o.HasEdge(offset+i, f) {
					want[i*L+k] = true
					break
				}
			}
		}
	}
	return want
}

// TestForbidStopsAtFirstWitness pins the pass's work: an unmarked slot
// tests its bucket in order up to its first adjacent member and no pair
// past it, a slot already marked tests nothing, and Forbid returns exactly
// Σ (witness position + 1, or the bucket length) over the tested slots.
// Buckets here hold 50 members each and a witness usually sits in the
// first few, so testing whole buckets, or blocks of them, fails.
func TestForbidStopsAtFirstWitness(t *testing.T) {
	const nFixed, nActive, P, L = 400, 60, 8, 3
	o, colors, lists := fixedFixture(nFixed, nActive, P, L)
	ix := fixedIndex(colors, P)
	for _, workers := range []int{1, 3} {
		arena := NewArena()
		log := &pairLog{Oracle: o, asked: map[[2]int]int{}}
		mask := make([]bool, nActive*L)
		for s := range mask {
			mask[s] = s%5 == 0
		}
		pre := slices.Clone(mask)
		tested := Forbid(context.Background(), ix, crossTestOracle{o: log, offset: nFixed}, lists, workers, arena, mask)

		var want int64
		for i := 0; i < nActive; i++ {
			u := nFixed + i
			for k, c := range lists.List(i) {
				members := ix.Bucket(c)
				stop := len(members) // pairs the slot must test
				if pre[i*L+k] {
					stop = 0
				} else if w := slices.IndexFunc(members, func(f int32) bool { return o.HasEdge(u, int(f)) }); w >= 0 {
					stop = w + 1
				}
				want += int64(stop)
				for w, f := range members {
					if got := log.asked[[2]int{u, int(f)}]; got != min(1, max(stop-w, 0)) {
						t.Fatalf("workers=%d: row %d slot %d asked about bucket member %d (of %d, %d to test) %d times",
							workers, i, k, w, len(members), stop, got)
					}
				}
			}
		}
		if tested != want {
			t.Fatalf("workers=%d: Forbid reports %d tests, want %d", workers, tested, want)
		}
	}
}

func TestForbidMatchesBruteForce(t *testing.T) {
	const nFixed, nActive, P, L = 150, 120, 13, 4
	o, colors, lists := fixedFixture(nFixed, nActive, P, L)
	want := bruteForbidden(o, nFixed, colors, lists)
	ix := fixedIndex(colors, P)

	var counts []int64
	for _, row := range []bool{false, true} {
		cross := crossTestOracle{o: o, offset: nFixed, row: row}
		for _, workers := range []int{1, 4} {
			got := make([]bool, nActive*L)
			tested := Forbid(context.Background(), ix, cross, lists, workers, NewArena(), got)
			if tested == 0 {
				t.Fatal("fixed pass tested nothing")
			}
			counts = append(counts, tested)
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("row=%v workers=%d: slot %d = %v, want %v", row, workers, s, got[s], want[s])
				}
			}
		}
	}
	// The count is the pass's, not the oracle's: a row kernel answering
	// whole buckets reports the same tests as one stopping at the witness.
	if slices.Min(counts) != slices.Max(counts) {
		t.Fatalf("test counts differ across oracles and workers: %v", counts)
	}
}

func TestForbidAccumulatesAcrossFrontierChunks(t *testing.T) {
	// The streaming engine bounds fixed-pass memory by indexing the frontier
	// chunk by chunk; the union of chunked passes must equal one whole pass.
	const nFixed, nActive, P, L = 160, 90, 9, 3
	o, colors, lists := fixedFixture(nFixed, nActive, P, L)
	cross := crossTestOracle{o: o, offset: nFixed}
	want := bruteForbidden(o, nFixed, colors, lists)

	arena := NewArena()
	got := make([]bool, nActive*L)
	var ix bucket.Index // one index rebuilt per chunk, as the engine does
	for lo := 0; lo < nFixed; lo += 37 {
		ix.Rebuild(colors, nil, lo, min(lo+37, nFixed), 0, P)
		Forbid(context.Background(), &ix, cross, lists, 2, arena, got)
	}
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("chunked slot %d = %v, want %v", s, got[s], want[s])
		}
	}
}

func TestBuildersHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := testOracle{graph.RandomOracle{N: 200, P: 0.5, Seed: 3}}
	lists := newTestLists(200, 25, 5, 7)
	for name, b := range testBuilders(t) {
		if _, _, err := b.Build(ctx, o, lists, nil); err != context.Canceled {
			t.Errorf("%s: cancelled build returned %v", name, err)
		}
	}
}
