package main

import (
	"context"
	"fmt"
	"time"

	"picasso"
	"picasso/internal/backend"
	"picasso/internal/memtrack"
)

// input is what a batch workload hands the engine: a Pauli-string set or an
// edge oracle, exactly one non-nil.
type input struct {
	set    *picasso.PauliSet
	oracle picasso.Oracle
}

func (in input) vertices() int {
	if in.set != nil {
		return in.set.Len()
	}
	return in.oracle.NumVertices()
}

// The engine adapter: colorRun and refineRun are the only places the
// benchmark calls the engine's run entry points. Consolidating those entry
// points changes these two bodies, not the workloads.

// colorRun runs one coloring, one-shot or streamed.
func colorRun(ctx context.Context, in input, opts picasso.Options, streamed bool) (*picasso.Result, error) {
	switch {
	case in.set != nil && streamed:
		return picasso.StreamPauli(ctx, in.set, opts)
	case in.set != nil:
		return picasso.ColorPauliContext(ctx, in.set, opts)
	case streamed:
		return picasso.Stream(ctx, in.oracle, opts)
	default:
		return picasso.ColorContext(ctx, in.oracle, opts)
	}
}

// refineRun runs the palette-refinement pass over a finished coloring.
func refineRun(ctx context.Context, in input, prev picasso.Coloring, opts picasso.Options, ropts picasso.RefineOptions) (*picasso.RefineStats, error) {
	if in.set != nil {
		return picasso.RefinePauli(ctx, in.set, prev, opts, ropts)
	}
	return picasso.Refine(ctx, in.oracle, prev, opts, ropts)
}

// verifyInput checks a coloring against its input: Pauli inputs must be a
// valid unitary grouping, oracles a proper complete coloring.
func verifyInput(in input, c picasso.Coloring) error {
	if in.set != nil {
		return picasso.VerifyGrouping(in.set, c)
	}
	return picasso.Verify(in.oracle, c)
}

// timedBuilder wraps a conflict builder and records a span plus counters
// around every Build. An injected builder turns stream lanes off, so Build
// calls never overlap and the fields need no lock.
type timedBuilder struct {
	inner   backend.ConflictBuilder
	rec     *recorder
	parent  int    // span the next builds nest under
	job     string // job id stamped on the spans
	workers int    // conflict-build workers; jobs copy it into Options

	builds, pairs, edges, bytes int64
	busy                        time.Duration
}

// newTimedBuilder wraps the registry's automatic choice for the given worker
// count, with an arena of its own.
func newTimedBuilder(rec *recorder, workers int) (*timedBuilder, error) {
	inner, err := backend.New("", backend.Config{Workers: workers, Arena: backend.NewArena()})
	if err != nil {
		return nil, fmt.Errorf("wrapping conflict builder: %w", err)
	}
	return &timedBuilder{inner: inner, rec: rec, parent: -1, workers: workers}, nil
}

func (b *timedBuilder) Name() string { return b.inner.Name() }

func (b *timedBuilder) Build(ctx context.Context, o backend.EdgeOracle, lists backend.Lists, tr *memtrack.Tracker) (*backend.ConflictGraph, backend.Stats, error) {
	t0 := time.Now()
	cg, st, err := b.inner.Build(ctx, o, lists, tr)
	t1 := time.Now()
	b.rec.add("backend.build", t0, t1, b.parent, b.job)
	b.builds++
	b.busy += t1.Sub(t0)
	b.pairs += st.PairsTested
	b.bytes += st.PairsTested * 2 * vertexBytes(o)
	if cg != nil {
		b.edges += cg.Edges
	}
	return cg, st, err
}

// vertexBytes is the per-vertex input data one pair test reads: the
// oracle's device bytes per vertex where it reports them (a Pauli string's
// packed words), else one 4-byte vertex id (a hashed oracle computes from
// the id alone). backend.bytes_computed is this model times the pairs
// tested, not a measured transfer.
func vertexBytes(o backend.EdgeOracle) int64 {
	if ds, ok := o.(backend.DeviceSizer); ok && o.Len() > 0 {
		if b := ds.DeviceBytes() / int64(o.Len()); b > 0 {
			return b
		}
	}
	return 4
}
