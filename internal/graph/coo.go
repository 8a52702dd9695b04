package graph

import (
	"fmt"

	"picasso/internal/grow"
)

// COO is an edge list, the intermediate the conflict-graph kernel emits
// before CSR conversion (paper Algorithm 3: "we are left with an unordered
// edge list"). No order is required. The CPU builder's COO is row-major,
// with every row it walked ascending; the simulated device's COO is
// unordered, because rows claim their slots through an atomic cursor.
type COO struct {
	N int
	U []int32
	V []int32
}

// NumEdges returns the number of stored edges.
func (c *COO) NumEdges() int { return len(c.U) }

// Append adds edge {u, v}.
func (c *COO) Append(u, v int32) {
	c.U = append(c.U, u)
	c.V = append(c.V, v)
}

// Bytes returns the edge-list footprint: live entries, not capacity, so
// the memory model reports the same figure whether the backing arrays are
// fresh or recycled from a larger build (arena pooling).
func (c *COO) Bytes() int64 {
	return int64(len(c.U))*4 + int64(len(c.V))*4
}

// ExclusiveSum scans counts into offsets: out[i] = Σ_{j<i} counts[j], with
// out[len(counts)] = total. Mirrors the exclusive_sum step of Algorithm 3.
func ExclusiveSum(counts []int64) []int64 {
	return ExclusiveSumInto(counts, make([]int64, len(counts)+1))
}

// ExclusiveSumInto is ExclusiveSum writing into out, which must have
// len(counts)+1 entries — the pooled-storage form shared by the CSR
// conversion and the bucket-index build.
func ExclusiveSumInto(counts, out []int64) []int64 {
	out[0] = 0
	for i, c := range counts {
		out[i+1] = out[i] + c
	}
	return out
}

// ToCSR converts the edge list to CSR, given the per-vertex edge counts
// accumulated during edge generation. This is the host-side generate_csr
// path of Algorithm 3: each edge is placed twice using a cursor per vertex,
// then adjacency lists are sorted. The degrees slice is consumed as cursor
// scratch and holds garbage afterwards.
func (c *COO) ToCSR(degrees []int64) (*CSR, error) {
	return c.ToCSRInto(degrees, nil)
}

// ToCSRInto is ToCSR writing into g, reusing g's Offsets/Adj backing arrays
// when they are large enough (pass nil to allocate a fresh CSR). This is the
// zero-allocation steady-state path: an iteration loop or a service worker
// converts every conflict COO into the same pooled CSR storage. As with
// ToCSR, degrees is consumed as cursor scratch.
//
// From a row-major COO whose edges run from the row's vertex to a higher
// one, CSR row u receives its lower neighbours in row order and then its
// upper neighbours in the order row u listed them. So every row whose own
// edges are ascending fills already sorted, and the per-row sort confirms it
// in one linear pass: that is every row the CPU builder walked. Its other
// rows, and the device builder's unordered COO, are sorted for real.
func (c *COO) ToCSRInto(degrees []int64, g *CSR) (*CSR, error) {
	if len(degrees) != c.N {
		return nil, fmt.Errorf("graph: %d degrees for %d vertices", len(degrees), c.N)
	}
	if g == nil {
		g = &CSR{}
	}
	g.N = c.N
	g.Offsets = ExclusiveSumInto(degrees, grow.Slice(g.Offsets, c.N+1))
	if g.Offsets[c.N] != int64(2*len(c.U)) {
		return nil, fmt.Errorf("graph: degree sum %d != 2·edges %d", g.Offsets[c.N], 2*len(c.U))
	}
	g.Adj = grow.Slice(g.Adj, int(g.Offsets[c.N]))
	cursor := degrees
	copy(cursor, g.Offsets[:c.N])
	for i := range c.U {
		u, v := c.U[i], c.V[i]
		g.Adj[cursor[u]] = v
		cursor[u]++
		g.Adj[cursor[v]] = u
		cursor[v]++
	}
	g.sortAdjacency()
	return g, nil
}

// CountDegrees recomputes per-vertex degrees from the edge list.
func (c *COO) CountDegrees() []int64 {
	return c.CountDegreesInto(nil)
}

// CountDegreesInto recomputes per-vertex degrees into deg, reusing its
// backing array when it is large enough (pass nil to allocate).
func (c *COO) CountDegreesInto(deg []int64) []int64 {
	deg = grow.Zeroed(deg, c.N)
	for i := range c.U {
		deg[c.U[i]]++
		deg[c.V[i]]++
	}
	return deg
}
