package backend

import (
	"context"
	"fmt"
	"sync/atomic"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/par"
)

// gpuBuilder mirrors Algorithm 3 on the simulated device.
type gpuBuilder struct {
	dev   *gpusim.Device
	arena *Arena
}

func (gpuBuilder) Name() string { return "gpu" }

func (g gpuBuilder) Build(ctx context.Context, o EdgeOracle, lists Lists, tr *memtrack.Tracker) (*ConflictGraph, Stats, error) {
	if err := Cancelled(ctx); err != nil {
		return nil, Stats{}, err
	}
	a := g.arena
	bk := NewBucketsIn(a, lists)
	release := tr.Scoped(bk.Bytes())
	defer release()

	scan, err := deviceScan(ctx, g.dev, o, lists, bk, a)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{
		OnDevice:        scan.onDevice,
		DevicePeakBytes: scan.peak,
		PairsTested:     scan.calls,
	}
	gc, err := a.lanesToCSR(scan.lanes, scan.edges)
	if err != nil {
		return nil, st, err
	}
	if !scan.onDevice {
		// Host-side CSR: charge the host tracker (Algorithm 3 line 8).
		tr.Alloc(gc.Bytes())
		st.HostBytes = gc.Bytes()
	}
	return &ConflictGraph{G: gc, Edges: scan.edges}, st, nil
}

// scanResult carries one device scan back to the gpu builder.
type scanResult struct {
	lanes    []graph.COO // the edge list, one row band per "SM"
	edges    int64       // |Ec|
	calls    int64       // oracle consultations
	onDevice bool        // CSR fit the spare budget
	peak     int64       // the scan's own device bytes, all live until it returns
}

// deviceScan runs the Algorithm 3 memory discipline and the bucket kernel
// over every row on one device. This is the single place the device
// accounting lives:
//
//	1: AvailMem = min(worst-case edge list, free device memory)
//	2: allocate input data (oracle slab + color lists + bucket index) +
//	   2|V| offset counters (4- or 8-byte) + the edge list
//	3: kernel collects each row's bucket-deduplicated candidates, tests the
//	   whole row in one batched oracle call, and reserves the row's hits in
//	   the edge list through a single atomic cursor add
//	4: if the CSR fits the spare budget it is generated "on device";
//	   otherwise the caller falls back to the host CPU.
//
// A conflict-edge overflow of the allocated list is a device OOM — exactly
// how the largest instance in the paper fails on the 40 GB A100. The
// worst-case edge list stays the paper's all-pairs bound (not the bucket
// bound), so edge-list sizing matches the dense-scan implementation; the
// input allocation grows by the bucket index (≈ the color lists' own
// footprint, O(n·L)), which shifts OOM crossovers by that small constant —
// the honest price of shipping the index. The budget model is the device's;
// the host arrays standing in for its edge list are the CPU builder's: each
// "SM" scans its contiguous row band with scanRows, one row at a time, into
// its own arena lane, and the builder converts the lanes with
// RowLanesToCSRInto, so nothing is sorted. Per-worker scratch (a
// seen-bitset of m bits per "SM") is treated as kernel-local shared memory
// outside the budget model, like the dense kernel's registers were.
// Cancellation (ctx) is checked before the kernel launch and between worker
// chunks: a cancelled scan returns ctx.Err() with every device allocation
// released. The scan reports as its peak the sum of its own allocations,
// which all stay live until it returns, so builds sharing the device —
// speculative lanes, portfolio racers — never read each other's bytes.
func deviceScan(ctx context.Context, dev *gpusim.Device, o EdgeOracle, lists Lists, bk *Buckets, a *Arena) (scanResult, error) {
	m := o.Len()

	// Preprocessing: vertex data, color lists and the bucket index move to
	// the device.
	inputBytes := lists.Bytes() + bk.Bytes()
	if ds, ok := o.(DeviceSizer); ok {
		inputBytes += ds.DeviceBytes()
	}
	input, err := dev.Alloc(inputBytes)
	if err != nil {
		return scanResult{}, fmt.Errorf("device input allocation: %w", err)
	}
	defer input.Free()

	// Offset counters: 8 bytes when |V|² overflows 32 bits (paper §V).
	counterWidth := int64(4)
	if uint64(m)*uint64(m) >= 1<<32 {
		counterWidth = 8
	}
	counters, err := dev.Alloc(2 * int64(m) * counterWidth)
	if err != nil {
		return scanResult{}, fmt.Errorf("device counter allocation: %w", err)
	}
	defer counters.Free()

	// One lane per "SM", and at least one, so an empty scan still converts.
	// Lanes are reserved and emptied serially here; LaunchChunked runs at
	// most workers chunks, each touching only its own lane.
	workers := dev.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	workers = max(min(workers, m), 1)
	a.reserveLanes(workers)
	res := scanResult{lanes: a.emptyLanes(workers, m), peak: input.Bytes + counters.Bytes}

	// Worst-case edge list: m(m−1)/2 pairs × 8 bytes (two int32), clamped
	// to the remaining budget.
	worstPairs := int64(m) * int64(m-1) / 2
	if worstPairs == 0 {
		return res, nil
	}
	edgeBytes := worstPairs * 8
	if free := dev.Free(); edgeBytes > free {
		edgeBytes = free
	}
	capEdges := edgeBytes / 8
	if capEdges <= 0 {
		return scanResult{}, &gpusim.ErrOutOfMemory{Device: dev.Name, Requested: 8, Free: dev.Free()}
	}
	edgeBuf, err := dev.Alloc(capEdges * 8)
	if err != nil {
		return scanResult{}, fmt.Errorf("device edge-list allocation: %w", err)
	}
	defer edgeBuf.Free()
	res.peak += edgeBuf.Bytes

	// Kernel: contiguous row ranges per worker ("SM") with private scratch.
	// Each row is one batched oracle call; its hits reserve a contiguous run
	// of the edge list with one atomic cursor add (row-at-a-time reservation
	// instead of an atomic per edge), and a reservation past the list's end
	// stops every worker.
	bo := AsBatch(o)
	if err := Cancelled(ctx); err != nil {
		return scanResult{}, err
	}
	calls := a.callsBuf(workers)
	var cursor atomic.Int64
	var overflow atomic.Bool
	dev.LaunchChunked(m, func(lo, hi, w int) {
		if Cancelled(ctx) != nil {
			return
		}
		s, lane := a.scratch(w, m), &res.lanes[w]
		var tested int64
		for i := lo; i < hi && !overflow.Load(); i++ {
			before := lane.NumEdges()
			tested += bk.scanRows(bo, lists, i, i+1, s, lane)
			if cursor.Add(int64(lane.NumEdges()-before)) > capEdges {
				overflow.Store(true)
			}
		}
		calls[w] = tested
	})
	if err := Cancelled(ctx); err != nil {
		return scanResult{}, err
	}
	if overflow.Load() {
		return scanResult{}, &gpusim.ErrOutOfMemory{
			Device:    dev.Name,
			Requested: (cursor.Load() + 1) * 8,
			Free:      edgeBytes,
		}
	}
	res.edges = cursor.Load()
	for _, c := range calls {
		res.calls += c
	}

	// CSR generation: on device if 2·|Ec| adjacency entries plus offsets fit
	// the spare budget (while the kernel buffers are still resident), else
	// the caller builds it on the host.
	csrBytes := 2*res.edges*4 + int64(m+1)*8
	if csrBytes <= dev.Free() {
		if b, err := dev.Alloc(csrBytes); err == nil {
			res.onDevice = true
			res.peak += b.Bytes
			defer b.Free()
		}
	}
	return res, nil
}
