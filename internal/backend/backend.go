// Package backend is the pluggable conflict-construction layer behind
// Algorithm 1's line 7. The core algorithm never builds the conflict
// subgraph itself: it hands an iteration-local edge oracle and the
// candidate-color lists to a ConflictBuilder chosen by name with New
// ("sequential", "parallel", "gpu", or "auto"), and receives the conflict
// CSR plus construction statistics back.
//
// Every builder shares one kernel: the palette-bucket inverted index
// (kernel.go). Vertices are bucketed by candidate color, so only pairs that
// co-occur in a bucket — exactly the pairs sharing a candidate color — are
// ever enumerated, and the edge oracle is consulted once per such pair
// (bitset deduplication), batched one row at a time through
// BatchEdgeOracle.HasRow so row-capable oracles hoist their per-vertex data
// out of the pair loop. This replaces the historical all-pairs scan,
// dropping per-iteration work from Θ(m²) pair tests to Θ(Σ_c |bucket_c|²)
// oracle calls, which under the paper's L²/P operating regime is a small
// fraction of the pair space (see ReferenceAllPairs and the package
// benchmarks for the measured gap). Every builder draws its working storage
// from an Arena and reuses it across builds.
package backend

import (
	"context"
	"fmt"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// EdgeOracle answers adjacency between the iteration-local vertex ids
// [0, Len()). It is the only window a builder has onto the input graph.
type EdgeOracle interface {
	// Len returns the number of active vertices m.
	Len() int
	// Has reports whether local vertices i and j are adjacent in the input.
	Has(i, j int) bool
}

// BatchEdgeOracle is an EdgeOracle whose adjacency test is batched per row:
// HasRow answers Has(i, js[k]) into out[k] for a whole candidate row at
// once. The bucket kernel naturally produces one deduplicated candidate
// list per row, so a batch-capable oracle (e.g. the Pauli commute kernel)
// hoists row i's vertex data a single time and streams the candidates over
// packed words instead of paying an interface dispatch, a closure call and
// a bounds recomputation per pair. Implementations must not retain js/out.
type BatchEdgeOracle interface {
	EdgeOracle
	// HasRow writes Has(i, js[k]) to out[k] for every k; len(out) ≥ len(js).
	HasRow(i int, js []int32, out []bool)
}

// AsBatch adapts any EdgeOracle to the batch interface: batch-capable
// oracles pass through, plain oracles get a per-pair fallback loop. The
// kernel consults oracles exclusively through this, so custom EdgeOracle
// implementations keep working unchanged and batch-capable ones are used
// at full width.
func AsBatch(o EdgeOracle) BatchEdgeOracle {
	if b, ok := o.(BatchEdgeOracle); ok {
		return b
	}
	return perPairBatch{o}
}

// perPairBatch answers HasRow with one Has call per candidate.
type perPairBatch struct{ EdgeOracle }

func (p perPairBatch) HasRow(i int, js []int32, out []bool) {
	for k, j := range js {
		out[k] = p.Has(i, int(j))
	}
}

// DeviceSizer is optionally implemented by oracles whose vertex data must be
// resident on the device during construction (e.g. the encoded Pauli slab of
// Algorithm 3's preprocessing). Device builders probe for it and charge the
// reported bytes to the device budget; oracles without it are charged
// nothing.
type DeviceSizer interface{ DeviceBytes() int64 }

// Lists is the candidate-color-list view the kernel consumes: each of the
// Len() vertices owns a sorted list of ListSize() distinct colors drawn from
// the palette [0, Palette()).
type Lists interface {
	Len() int
	ListSize() int
	Palette() int
	// List returns vertex i's ascending candidate colors; callers must not
	// mutate the returned slice.
	List(i int) []int32
	// Bytes is the list storage footprint, charged to device budgets by the
	// GPU builders (the lists ride along with the input data).
	Bytes() int64
}

// ConflictGraph is the product of one build: the conflict subgraph in CSR
// form on the iteration-local ids.
type ConflictGraph struct {
	G     *graph.CSR
	Edges int64 // |Ec|
}

// Stats reports how a build went: the Algorithm 3 accounting plus kernel
// work counters.
type Stats struct {
	// OnDevice reports that the CSR was generated within the device budget
	// (Algorithm 3's branch); false for host builds and host fallbacks.
	OnDevice bool
	// DevicePeakBytes is the device-memory peak during construction.
	DevicePeakBytes int64
	// HostBytes is the long-lived host allocation charged to the tracker
	// (the conflict CSR when it lives on the host); the caller frees it.
	HostBytes int64
	// PairsTested counts the vertex pairs the build examined — the
	// kernel's work measure. The bucketed builders test only the
	// deduplicated bucket-co-occurring pairs and consult the edge oracle
	// once per tested pair; a dense scan tests all m(m−1)/2 pairs (a list
	// intersection each) and consults the oracle only for the sharing
	// subset, so the two paths make similar oracle-call counts but differ
	// by the full pair space in intersection work.
	PairsTested int64
}

// ConflictBuilder constructs the conflict subgraph of one iteration: the
// edges of the input oracle whose endpoints share a candidate color.
// Implementations must be deterministic up to edge order — the CSR handed
// back always has sorted adjacency, so downstream coloring is reproducible
// across backends. A builder from New owns its arena, so it must not run
// concurrent builds: hold one builder per goroutine.
type ConflictBuilder interface {
	// Name returns the backend name of the builder.
	Name() string
	// Build materializes the conflict subgraph. The tracker receives host
	// memory accounting; Stats.HostBytes is still allocated when Build
	// returns and is released by the caller. Builders honor ctx at their
	// internal stage boundaries (index build, row scan, CSR conversion) and
	// return ctx.Err() when cancelled — partial work is discarded, never
	// returned.
	Build(ctx context.Context, o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error)
}

// Cancelled is the builders' (and the fixed-pass kernel's) non-blocking
// cancellation probe, checked at stage boundaries. A nil ctx never cancels.
func Cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Config carries the execution resources a builder may need. New rejects
// configs missing a backend's requirements ("gpu" without a Device).
type Config struct {
	// Workers is the CPU parallelism (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Device is the simulated accelerator for the gpu path.
	Device *gpusim.Device
	// Arena pools the builder's working storage across builds (see Arena),
	// so the builder allocates only on growth. Nil gives the builder a
	// fresh arena of its own.
	Arena *Arena
}

// New instantiates the named backend. The empty name and "auto" select
// automatically from the config: a device → "gpu", Workers == 1 →
// "sequential", otherwise "parallel". "sequential" is the CPU builder with
// one worker.
func New(name string, cfg Config) (ConflictBuilder, error) {
	if name == "" || name == "auto" {
		switch {
		case cfg.Device != nil:
			name = "gpu"
		case cfg.Workers == 1:
			name = "sequential"
		default:
			name = "parallel"
		}
	}
	if cfg.Arena == nil {
		cfg.Arena = NewArena()
	}
	switch name {
	case "sequential":
		return cpuBuilder{name: name, workers: 1, arena: cfg.Arena}, nil
	case "parallel":
		return cpuBuilder{name: name, workers: cfg.Workers, arena: cfg.Arena}, nil
	case "gpu":
		if cfg.Device == nil {
			return nil, fmt.Errorf("backend: gpu backend requires a device")
		}
		return gpuBuilder{dev: cfg.Device, arena: cfg.Arena}, nil
	}
	return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
}

// Names returns the backend names New accepts, sorted, with "auto" first.
func Names() []string {
	return []string{"auto", "gpu", "parallel", "sequential"}
}

// finishCOO converts a host-side edge list to CSR and fills in the host
// accounting: the transient COO is charged for the duration of the
// conversion, the resulting CSR stays charged (Stats.HostBytes) for the
// caller to free. The degree scratch and the CSR backing come from the
// arena; the CSR is lent to the returned ConflictGraph until the arena's
// next build.
func finishCOO(a *Arena, coo *graph.COO, tr *memtrack.Tracker, st Stats) (*ConflictGraph, Stats, error) {
	release := tr.Scoped(coo.Bytes())
	gc, err := coo.ToCSRInto(coo.CountDegreesInto(a.degBuf(coo.N)), &a.csr)
	release()
	if err != nil {
		return nil, st, err
	}
	tr.Alloc(gc.Bytes())
	st.HostBytes = gc.Bytes()
	return &ConflictGraph{G: gc, Edges: int64(coo.NumEdges())}, st, nil
}
