package backend

import (
	"picasso/internal/graph"
	"picasso/internal/grow"
)

// Arena pools the working storage of conflict-graph construction — the
// bucket index, per-worker kernel scratch and edge lanes, the CSR
// conversion's cursors, and the conflict CSR backing — so a steady-state
// caller (the iteration loop, a service worker recoloring job after job)
// reuses one set of allocations instead of re-making them every build.
// Buffers grow to the largest build seen and are retained.
//
// An Arena is NOT safe for concurrent use: hold one per goroutine (the
// coloring service keeps one per pool worker). Builds running on one arena
// may still fan out internally — worker lanes are reserved serially before
// the parallel section, so each goroutine touches only its own lane.
type Arena struct {
	bk Buckets
	// Worker lane w owns scratches[w] and laneCOO[w]. A lane's edge buffer
	// holds its row band's edges and is one input of the lane-parallel CSR
	// conversion; the fixed-color pass uses only the scratch.
	scratches []*Scratch
	laneCOO   []graph.COO
	calls     []int64
	// cursors holds the CSR conversion's group cursors (lanesToCSR).
	cursors []int64
	// csr backs the conflict CSR a build hands back, valid until the next
	// build on the arena — the iteration-at-a-time lifetime core gives it.
	csr graph.CSR
}

// NewArena returns an empty arena; storage grows on first use.
func NewArena() *Arena { return &Arena{} }

// reserveLanes grows the worker-lane tables to count lanes. Must be
// called serially before concurrent lane access.
func (a *Arena) reserveLanes(count int) {
	for len(a.scratches) < count {
		a.scratches = append(a.scratches, nil)
		a.laneCOO = append(a.laneCOO, graph.COO{})
	}
}

// emptyLanes empties the edge buffers of the first count lanes for n
// vertices and returns them. The buffers keep their capacity, so growth
// during a scan is retained for the next build.
func (a *Arena) emptyLanes(count, n int) []graph.COO {
	lanes := a.laneCOO[:count]
	for w := range lanes {
		c := &lanes[w]
		c.N, c.U, c.V = n, c.U[:0], c.V[:0]
	}
	return lanes
}

// scratch returns worker lane w's kernel scratch, grown for n vertices.
func (a *Arena) scratch(w, n int) *Scratch {
	if a.scratches[w] == nil {
		a.scratches[w] = NewScratch(n)
	} else {
		a.scratches[w].grow(n)
	}
	return a.scratches[w]
}

// callsBuf returns a zeroed per-worker call-count buffer.
func (a *Arena) callsBuf(n int) []int64 {
	a.calls = grow.Zeroed(a.calls, n)
	return a.calls
}

// lanesToCSR converts a build's lanes, which hold |Ec| = edges edges in
// all, into the arena's CSR with graph.RowLanesToCSRInto; the CSR is lent
// to the caller until the arena's next build. It uses one group per |Ec|/m
// edges, at most one per lane: the groups' cursors (8m bytes each) then
// never exceed the edge list they convert (8|Ec| bytes), and a build with
// fewer edges than vertices uses one group.
func (a *Arena) lanesToCSR(lanes []graph.COO, edges int64) (*graph.CSR, error) {
	m := lanes[0].N
	groups := int(min(max(edges/int64(max(m, 1)), 1), int64(len(lanes))))
	a.cursors = grow.Slice(a.cursors, groups*m)
	return graph.RowLanesToCSRInto(lanes, groups, a.cursors, &a.csr)
}
