package backend

import (
	"context"

	"picasso/internal/memtrack"
	"picasso/internal/par"
)

// cpuBuilder is the CPU path: "sequential" is one worker (the paper's "CPU
// only" configuration), "parallel" is many. Rows are split into contiguous
// bands balanced by the buckets' per-row pair weights (not by row count —
// candidate pairs are triangular and bucket-skewed), and each worker runs
// the kernel over its band into its lane's edge buffer with private
// scratch. The lanes are never merged: RowLanesToCSRInto converts them in
// place, a group of lanes per goroutine, into CSR rows that come out sorted
// because every lane is row-major and row-ascending. The CSR — and
// therefore the downstream coloring — is the same for every worker count.
type cpuBuilder struct {
	name    string
	workers int // 0 = GOMAXPROCS
	arena   *Arena
}

func (b cpuBuilder) Name() string { return b.name }

func (b cpuBuilder) Build(ctx context.Context, o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error) {
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}
	m := o.Len()
	workers := b.workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	a := b.arena
	bk := NewBucketsIn(a, lists)
	// Charge the index plus every worker's seen-bitset for this build —
	// workers× the scratch of one worker, never what a warm arena retains
	// from a larger build.
	release := tr.Scoped(bk.Bytes() + int64(workers)*ScratchBytes(m))
	defer release()
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}

	// Lanes are reserved and emptied serially here; inside the weighted loop
	// each worker touches only its own lane, so arena reuse stays race-free.
	a.reserveLanes(workers)
	lanes := a.emptyLanes(workers, m)
	bo := AsBatch(o)
	calls := a.callsBuf(workers)
	par.ForWeightedChunks(workers, bk.RowWeight, func(lo, hi, w int) {
		if Cancelled(ctx) != nil {
			return
		}
		calls[w] = bk.scanRows(bo, lists, lo, hi, a.scratch(w, m), &lanes[w])
	})
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}

	var st Stats
	var edges, cooBytes int64
	for w := range lanes {
		st.PairsTested += calls[w]
		edges += int64(lanes[w].NumEdges())
		cooBytes += lanes[w].Bytes()
	}
	// The lanes are charged for the duration of the conversion, then the
	// CSR stays charged (Stats.HostBytes) for the caller to free.
	releaseCOO := tr.Scoped(cooBytes)
	gc, err := a.lanesToCSR(lanes, edges)
	releaseCOO()
	if err != nil {
		return nil, st, err
	}
	tr.Alloc(gc.Bytes())
	st.HostBytes = gc.Bytes()
	return &ConflictGraph{G: gc, Edges: edges}, st, nil
}
