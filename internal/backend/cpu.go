package backend

import (
	"context"

	"picasso/internal/memtrack"
	"picasso/internal/par"
)

// cpuBuilder is the CPU path: "sequential" is one worker (the paper's "CPU
// only" configuration), "parallel" is many. Rows are split into contiguous
// chunks balanced by the buckets' per-row pair weights (not by row count —
// candidate pairs are triangular and bucket-skewed), each worker runs the
// kernel into its lane's edge buffer with private scratch, and the lanes
// are concatenated in worker order, so the edge list — and therefore the
// downstream coloring — is the same for every worker count.
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
	// Charge the index plus every worker's seen-bitset for this build: the
	// byte-exact memory model says workers× the scratch of one worker, and
	// never what a warm arena retains from a larger build.
	release := tr.Scoped(bk.Bytes() + int64(workers)*ScratchBytes(m))
	defer release()
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}

	// Lanes are reserved and emptied serially here; inside the weighted loop
	// each worker touches only its own lane, so arena reuse stays race-free.
	a.reserveLanes(workers)
	a.emptyLanes(workers, m)
	bo := AsBatch(o)
	calls := a.callsBuf(workers)
	par.ForWeightedChunks(workers, bk.RowWeight, func(lo, hi, w int) {
		if Cancelled(ctx) != nil {
			return
		}
		calls[w] = bk.scanRows(bo, lists, lo, hi, a.scratch(w, m), &a.lanes[w].coo)
	})
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}

	// Lane 0 is the merge target: the later lanes follow it in worker order,
	// and a one-worker build copies nothing.
	coo := &a.lanes[0].coo
	st := Stats{PairsTested: calls[0]}
	for w := 1; w < workers; w++ {
		local := &a.lanes[w].coo
		coo.U = append(coo.U, local.U...)
		coo.V = append(coo.V, local.V...)
		st.PairsTested += calls[w]
	}
	return finishCOO(a, coo, tr, st)
}
