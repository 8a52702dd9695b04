package backend

import (
	"context"
	"testing"

	"picasso/internal/graph"
)

// crossTestOracle adjacency-tests active-local rows (offset into the global
// graph) against global fixed ids — the same shape the streaming engine
// wires up.
type crossTestOracle struct {
	o      graph.Oracle
	offset int
}

func (c crossTestOracle) HasCross(i int, fixed []int32, out []bool) {
	for k, f := range fixed {
		out[k] = c.o.HasEdge(c.offset+i, int(f))
	}
}

// fixedFixture: vertices [0, nFixed) are the colored frontier, vertices
// [nFixed, nFixed+nActive) are the active shard with candidate lists.
func fixedFixture(nFixed, nActive, P, L int) (graph.Oracle, []int32, []int32, *testLists) {
	o := graph.RandomOracle{N: nFixed + nActive, P: 0.5, Seed: 77}
	ids := make([]int32, nFixed)
	colors := make([]int32, nFixed)
	for k := range ids {
		ids[k] = int32(k)
		colors[k] = int32((k * 7) % P)
	}
	lists := newTestLists(nActive, P, L, 23)
	return o, ids, colors, lists
}

// bruteForbidden computes the reference mask: slot k of active row i is
// forbidden iff some fixed vertex with that color is adjacent to i.
func bruteForbidden(o graph.Oracle, offset int, ids, colors []int32, lists Lists) []bool {
	L := lists.ListSize()
	want := make([]bool, lists.Len()*L)
	for i := 0; i < lists.Len(); i++ {
		for k, c := range lists.List(i) {
			for f := range ids {
				if colors[f] == c && o.HasEdge(offset+i, int(ids[f])) {
					want[i*L+k] = true
					break
				}
			}
		}
	}
	return want
}

func TestFixedBucketsInvariants(t *testing.T) {
	_, ids, colors, _ := fixedFixture(130, 0, 11, 4)
	fb := NewFixedBucketsIn(NewArena(), 11, ids, colors)
	if got := len(fb.Vtx); got != len(ids) {
		t.Fatalf("index holds %d entries for %d fixed vertices", got, len(ids))
	}
	seen := 0
	for c := int32(0); c < 11; c++ {
		for _, v := range fb.Bucket(c) {
			if colors[v] != c {
				t.Fatalf("vertex %d with color %d filed under bucket %d", v, colors[v], c)
			}
			seen++
		}
	}
	if seen != len(ids) {
		t.Fatalf("buckets cover %d of %d fixed vertices", seen, len(ids))
	}
}

func TestForbidMatchesBruteForce(t *testing.T) {
	const nFixed, nActive, P, L = 150, 120, 13, 4
	o, ids, colors, lists := fixedFixture(nFixed, nActive, P, L)
	cross := crossTestOracle{o: o, offset: nFixed}
	want := bruteForbidden(o, nFixed, ids, colors, lists)

	for _, workers := range []int{1, 4} {
		arena := NewArena()
		fb := NewFixedBucketsIn(arena, P, ids, colors)
		got := make([]bool, nActive*L)
		tested := fb.Forbid(context.Background(), cross, lists, workers, arena, got)
		if tested == 0 {
			t.Fatal("fixed pass tested nothing")
		}
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("workers=%d: slot %d = %v, want %v", workers, s, got[s], want[s])
			}
		}
	}
}

func TestForbidAccumulatesAcrossFrontierChunks(t *testing.T) {
	// The streaming engine bounds fixed-pass memory by indexing the frontier
	// chunk by chunk; the union of chunked passes must equal one whole pass.
	const nFixed, nActive, P, L = 160, 90, 9, 3
	o, ids, colors, lists := fixedFixture(nFixed, nActive, P, L)
	cross := crossTestOracle{o: o, offset: nFixed}
	want := bruteForbidden(o, nFixed, ids, colors, lists)

	arena := NewArena()
	got := make([]bool, nActive*L)
	for lo := 0; lo < nFixed; lo += 37 {
		hi := min(lo+37, nFixed)
		fb := NewFixedBucketsIn(arena, P, ids[lo:hi], colors[lo:hi])
		fb.Forbid(context.Background(), cross, lists, 2, arena, got)
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
