package backend

import (
	"picasso/internal/graph"
	"picasso/internal/grow"
)

// Arena pools the working storage of conflict-graph construction — the
// bucket index, per-worker kernel scratch and edge buffers, the CSR
// conversion's cursors, the device edge-list mirrors, and the conflict CSR
// backing — so a steady-state caller (the iteration loop, a service worker
// recoloring job after job) reuses one set of allocations instead of
// re-making them every build. Buffers grow to the largest build seen and are
// retained, except the device's worst-case edge mirrors, whose retention is
// bounded (see maxRetainedDeviceEdges).
//
// An Arena is NOT safe for concurrent use: hold one per goroutine (the
// coloring service keeps one per pool worker). Builds running on one arena
// may still fan out internally — worker lanes are reserved serially before
// the parallel section, so each goroutine touches only its own lane.
type Arena struct {
	bk  Buckets
	fb  FixedBuckets // streaming fixed-color index (fixed.go)
	cnt []int64      // bucket counting/cursor scratch (palette-sized)
	// Worker lane w owns scratches[w] and laneCOO[w]. A CPU lane's edge
	// buffer holds its row band's edges and is one input of the
	// lane-parallel CSR conversion; a device "SM" uses only the scratch.
	scratches []*Scratch
	laneCOO   []graph.COO
	calls     []int64
	// deg holds the CPU conversion's group cursors, or the device kernel's
	// degree counters.
	deg []int64
	// csr backs the conflict CSR a build hands back, valid until the next
	// build on the arena — the iteration-at-a-time lifetime core gives it.
	csr graph.CSR
	// devU, devV mirror the device's unordered edge list (deviceScan).
	devU, devV []int32
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

// maxRetainedDeviceEdges bounds the device edge-mirror capacity an arena
// keeps between builds (entries per half; 8M ≈ 64 MB across both halves).
// deviceScan sizes these buffers at the worst-case all-pairs bound clamped
// by device memory — far above the edges actually produced — so retaining
// them unconditionally would pin that worst case in every long-lived
// worker. Larger requests are served fresh and left to the collector.
const maxRetainedDeviceEdges = 8 << 20

// edgeBufs returns the host mirrors of the device's unordered edge list,
// grown to capEdges.
func (a *Arena) edgeBufs(capEdges int64) ([]int32, []int32) {
	if capEdges > maxRetainedDeviceEdges {
		return make([]int32, capEdges), make([]int32, capEdges)
	}
	a.devU = grow.Slice(a.devU, int(capEdges))
	a.devV = grow.Slice(a.devV, int(capEdges))
	return a.devU, a.devV
}

// degCounters returns zeroed per-vertex degree counters for the device
// kernel (which builds its CSR from them instead of recounting the COO).
func (a *Arena) degCounters(n int) []int64 {
	a.deg = grow.Zeroed(a.deg, n)
	return a.deg
}
