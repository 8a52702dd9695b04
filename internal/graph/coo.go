package graph

import (
	"fmt"

	"picasso/internal/grow"
	"picasso/internal/par"
)

// COO is an edge list, the intermediate the conflict-graph kernel emits
// before CSR conversion (paper Algorithm 3's edge list). Every conflict
// builder fills one COO per worker lane, row-major with every row strictly
// ascending, the order RowLanesToCSRInto relies on.
type COO struct {
	N int
	U []int32
	V []int32
}

// NumEdges returns the number of stored edges.
func (c *COO) NumEdges() int { return len(c.U) }

// Bytes returns the edge-list footprint: live entries, not capacity, so
// the memory model reports the same figure whether the backing arrays are
// fresh or recycled from a larger build (arena pooling).
func (c *COO) Bytes() int64 {
	return int64(len(c.U))*4 + int64(len(c.V))*4
}

// RowLanesToCSRInto converts an edge list held in lanes to CSR in g,
// reusing g's Offsets and Adj backing arrays when they are large enough
// (nil allocates a fresh CSR), and sorts nothing. It is the host-side
// generate_csr of Algorithm 3 for every conflict builder's lanes: the
// lanes are cut into groups contiguous runs, each group counts its lanes'
// per-vertex entries on its own goroutine, one serial pass turns the
// counts into Offsets and per-group cursors (Offsets[v] plus the entries
// of earlier groups), and each group then places its lanes' edges, in lane
// order, on its own goroutine again.
//
// The lanes must be row bands in order: every lane has N vertices, every
// edge (u, v) has u < v, each lane lists its rows ascending and each row's
// partners strictly ascending, and every row of a lane lies below every
// row of the next. CSR row v then receives its lower neighbours from
// earlier groups, then from earlier rows of its own group, then its own
// row's partners; each run is ascending and lies above the one before, so
// the row is sorted.
//
// cursors is scratch of at least groups·N entries, contents garbage; group
// k's cursors live at [k·N, (k+1)·N). groups must lie in [1, len(lanes)].
func RowLanesToCSRInto(lanes []COO, groups int, cursors []int64, g *CSR) (*CSR, error) {
	if groups < 1 || groups > len(lanes) {
		return nil, fmt.Errorf("graph: %d groups of %d lanes", groups, len(lanes))
	}
	n := lanes[0].N
	for w := range lanes {
		if lanes[w].N != n {
			return nil, fmt.Errorf("graph: lane %d has %d vertices, lane 0 has %d", w, lanes[w].N, n)
		}
	}
	if len(cursors) < groups*n {
		return nil, fmt.Errorf("graph: %d cursors for %d groups of %d vertices", len(cursors), groups, n)
	}
	if g == nil {
		g = &CSR{}
	}
	// One group runs inline: a build on one worker spawns nothing and
	// allocates no closure.
	if groups == 1 {
		countLanes(lanes, cursors[:n])
	} else {
		par.ForN(groups, groups, func(k int) {
			countLanes(laneGroup(lanes, cursors, groups, n, k))
		})
	}
	g.N = n
	g.Offsets = grow.Slice(g.Offsets, n+1)
	var total int64
	for v := 0; v < n; v++ {
		g.Offsets[v] = total
		for k := v; k < groups*n; k += n {
			total, cursors[k] = total+cursors[k], total
		}
	}
	g.Offsets[n] = total
	g.Adj = grow.Slice(g.Adj, int(total))
	if groups == 1 {
		fillLanes(lanes, cursors[:n], g.Adj)
	} else {
		adj := g.Adj
		par.ForN(groups, groups, func(k int) {
			band, cur := laneGroup(lanes, cursors, groups, n, k)
			fillLanes(band, cur, adj)
		})
	}
	return g, nil
}

// laneGroup returns group k's lanes and cursors when lanes are cut into
// groups contiguous runs over n vertices.
func laneGroup(lanes []COO, cursors []int64, groups, n, k int) ([]COO, []int64) {
	return lanes[k*len(lanes)/groups : (k+1)*len(lanes)/groups], cursors[k*n : (k+1)*n]
}

// countLanes zeroes cur and adds every lane's per-vertex entries to it.
func countLanes(lanes []COO, cur []int64) {
	clear(cur)
	for w := range lanes {
		lanes[w].addDegrees(cur)
	}
}

// fillLanes places every lane's edges into adj at cur, in lane order.
func fillLanes(lanes []COO, cur []int64, adj []int32) {
	for w := range lanes {
		lanes[w].place(adj, cur)
	}
}

// place is the conversion's fill step: it writes each edge {u, v} to adj at
// both endpoints' cursors and advances them.
func (c *COO) place(adj []int32, cursor []int64) {
	for i := range c.U {
		u, v := c.U[i], c.V[i]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
}

// addDegrees adds each edge's two endpoint entries to deg.
func (c *COO) addDegrees(deg []int64) {
	for i := range c.U {
		deg[c.U[i]]++
		deg[c.V[i]]++
	}
}
