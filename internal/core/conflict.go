package core

import (
	"picasso/internal/backend"
	"picasso/internal/graph"
)

// Conflict-subgraph construction itself lives in internal/backend: core
// hands the iteration-local oracle and candidate lists to the configured
// backend.ConflictBuilder (Options.Backend / Options.Builder) and consumes
// the returned CSR. This file only adapts the user's graph.Oracle to the
// backend's iteration-local view.

// edgeOracle answers adjacency between iteration-local indices. Three
// shapes, fastest first:
//
//   - active == nil, row != nil: the oracle's own ids are the local ids
//     (iteration 1, or a SubViewer compaction) and it answers whole rows —
//     the kernel's batched HasRow forwards straight into the oracle's row
//     kernel with no per-pair indirection at all.
//   - active == nil, row == nil: identity ids, per-pair HasEdge.
//   - active != nil: local ids map through the active-vertex table to the
//     user's oracle — the historical double-indirection path, kept for
//     oracles that cannot compact (no graph.SubViewer).
//
// It implements backend.BatchEdgeOracle either way, and forwards
// backend.DeviceSizer when the underlying oracle carries device-resident
// vertex data (e.g. the encoded Pauli slab).
type edgeOracle struct {
	o         graph.Oracle
	row       graph.RowOracle // non-nil only when active == nil and o batches rows
	active    []int32         // nil when local ids are the oracle's ids
	compacted bool            // o is an iteration-local sub-view, not the input
}

// newEdgeOracle builds the iteration's local view over the active vertices.
// An identity unit (the active set is exactly [0, n) in order — every first
// iteration of a whole-graph run) needs no mapping at all; other iterations
// compact SubViewer oracles into a contiguous sub-view held (and recycled)
// by the arena, and fall back to the mapping table otherwise. Shard first
// iterations over RangeViewer oracles take newRangeEdgeOracle instead.
func newEdgeOracle(o graph.Oracle, active []int32, identity bool, ar *Arena) edgeOracle {
	eo := edgeOracle{o: o, active: active}
	if identity {
		eo.active = nil
	} else if sv, ok := o.(graph.SubViewer); ok {
		ar.sub = sv.SubView(active, ar.sub)
		eo.o, eo.active, eo.compacted = ar.sub, nil, true
	}
	if eo.active == nil {
		if ro, ok := eo.o.(graph.RowOracle); ok {
			eo.row = ro
		}
	}
	return eo
}

// newRangeEdgeOracle wraps a RangeViewer's zero-copy shard view: local ids
// are the view's own ids, rows batch straight into the view's row kernel,
// and — the view sharing the input's storage — no iteration-scoped bytes
// are charged (compacted stays false). The view is deliberately NOT parked
// in the arena's sub-view slot: that slot's storage is recycled by
// CompactInto, and recycling a shared-slab view would scribble over the
// input set.
func newRangeEdgeOracle(view graph.Oracle) edgeOracle {
	eo := edgeOracle{o: view}
	if ro, ok := view.(graph.RowOracle); ok {
		eo.row = ro
	}
	return eo
}

// crossOracle answers adjacency between a local row and *global*
// fixed-frontier ids (backend.CrossOracle): the frozen-frontier scan tests
// candidates against already-colored vertices through it. Local id i is
// global id active[i] when an active table is given (the fixed-color pass),
// else base+i (the speculative repair's contiguous lane range). Both sides
// then live in the input oracle's id space, so the oracle's batched row
// kernel applies directly when it has one.
type crossOracle struct {
	o      graph.Oracle
	row    graph.RowOracle // non-nil when o batches rows
	active []int32         // local id → global id; nil maps i to base+i
	base   int
}

func newCrossOracle(o graph.Oracle, active []int32, base int) crossOracle {
	co := crossOracle{o: o, active: active, base: base}
	if ro, ok := o.(graph.RowOracle); ok {
		co.row = ro
	}
	return co
}

func (c crossOracle) HasCross(i int, fixed []int32, out []bool) {
	u := c.base + i
	if c.active != nil {
		u = int(c.active[i])
	}
	if c.row != nil {
		c.row.HasEdgeRow(u, fixed, out)
		return
	}
	for k, f := range fixed {
		out[k] = c.o.HasEdge(u, int(f))
	}
}

// Len returns the active-vertex count m.
func (e edgeOracle) Len() int {
	if e.active == nil {
		return e.o.NumVertices()
	}
	return len(e.active)
}

// Has reports input adjacency between local vertices i and j.
func (e edgeOracle) Has(i, j int) bool {
	if e.active == nil {
		return e.o.HasEdge(i, j)
	}
	return e.o.HasEdge(int(e.active[i]), int(e.active[j]))
}

// HasRow answers a whole candidate row (backend.BatchEdgeOracle): through
// the oracle's own row kernel when it has one, otherwise by a local loop —
// which still hoists row i's id mapping out of the per-pair work.
func (e edgeOracle) HasRow(i int, js []int32, out []bool) {
	if e.row != nil {
		e.row.HasEdgeRow(i, js, out)
		return
	}
	if e.active == nil {
		for k, j := range js {
			out[k] = e.o.HasEdge(i, int(j))
		}
		return
	}
	u := int(e.active[i])
	for k, j := range js {
		out[k] = e.o.HasEdge(u, int(e.active[j]))
	}
}

// DeviceBytes reports the underlying oracle's device-resident input size,
// or 0 when it has none. A compacted sub-view reports its own (smaller)
// slab: that is what a device build would actually ship.
func (e edgeOracle) DeviceBytes() int64 {
	if ds, ok := e.o.(backend.DeviceSizer); ok {
		return ds.DeviceBytes()
	}
	return 0
}

var (
	_ backend.EdgeOracle      = edgeOracle{}
	_ backend.BatchEdgeOracle = edgeOracle{}
	_ backend.DeviceSizer     = edgeOracle{}
	_ backend.CrossOracle     = crossOracle{}
)
