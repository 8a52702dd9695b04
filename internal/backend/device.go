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
		DevicePeakBytes: g.dev.Peak(),
		PairsTested:     scan.calls,
	}
	gc, err := scan.coo.ToCSRInto(scan.deg, &a.csr)
	if err != nil {
		return nil, st, err
	}
	if !scan.onDevice {
		// Host-side CSR: charge the host tracker (Algorithm 3 line 8).
		tr.Alloc(gc.Bytes())
		st.HostBytes = gc.Bytes()
	}
	return &ConflictGraph{G: gc, Edges: int64(scan.coo.NumEdges())}, st, nil
}

// scanResult carries one device scan back to the gpu builder.
type scanResult struct {
	coo      *graph.COO
	deg      []int64 // per-vertex degrees
	calls    int64   // oracle consultations
	onDevice bool    // CSR fit the spare budget
}

// deviceScan runs the Algorithm 3 memory discipline and the bucket kernel
// over every row on one device. This is the single place the device
// accounting lives:
//
//	1: AvailMem = min(worst-case edge list, free device memory)
//	2: allocate input data (oracle slab + color lists + bucket index) +
//	   2|V| offset counters (4- or 8-byte) + the edge list
//	3: kernel collects each row's bucket-deduplicated candidates, tests the
//	   whole row in one batched oracle call, and bulk-reserves the row's
//	   hits in the unordered edge list through a single atomic cursor add
//	4: per-vertex degrees accumulate for the exclusive_sum step
//	5: if the CSR fits the spare budget it is generated "on device";
//	   otherwise the caller falls back to the host CPU.
//
// A conflict-edge overflow of the allocated list is a device OOM — exactly
// how the largest instance in the paper fails on the 40 GB A100. The
// worst-case edge list stays the paper's all-pairs bound (not the bucket
// bound), so edge-list sizing matches the dense-scan implementation; the
// input allocation grows by the bucket index (≈ the color lists' own
// footprint, O(n·L)), which shifts OOM crossovers by that small constant —
// the honest price of shipping the index. Per-worker scratch (a seen-bitset
// of m bits per "SM") is treated as kernel-local shared memory outside the
// budget model, like the dense kernel's registers were. The arena pools the
// host-side mirrors of the device allocations across scans. Cancellation
// (ctx) is checked before the kernel launch and between worker chunks: a
// cancelled scan returns ctx.Err() with every device allocation released.
func deviceScan(ctx context.Context, dev *gpusim.Device, o EdgeOracle, lists Lists, bk *Buckets, a *Arena) (scanResult, error) {
	m := o.Len()
	dev.ResetPeak()

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

	// Worst-case unordered edge list: m(m−1)/2 pairs × 8 bytes (two
	// int32), clamped to the remaining budget.
	worstPairs := int64(m) * int64(m-1) / 2
	if worstPairs == 0 {
		return scanResult{coo: &graph.COO{N: m}, deg: make([]int64, m)}, nil
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

	// Kernel: contiguous row ranges per worker ("SM") with private scratch.
	// Each row is one batched oracle call; its hits claim a contiguous run
	// of the edge list via one atomic cursor add (row-at-a-time reservation
	// instead of an atomic per edge), and per-vertex degrees accumulate for
	// the CSR.
	u32, v32 := a.edgeBufs(capEdges)
	deg := a.degCounters(m)
	workers := dev.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if workers > m {
		workers = m
	}
	// Lanes are reserved serially here; LaunchChunked runs at most workers
	// chunks, each touching only its own lane.
	a.reserveLanes(workers)
	bo := AsBatch(o)
	if err := Cancelled(ctx); err != nil {
		return scanResult{}, err
	}
	var cursor, calls atomic.Int64
	var overflow atomic.Bool
	dev.LaunchChunked(m, func(lo, hi, w int) {
		if Cancelled(ctx) != nil {
			return
		}
		s := a.scratch(w, m)
		var localCalls int64
		for i := lo; i < hi; i++ {
			if overflow.Load() {
				break
			}
			cand := bk.CollectRow(lists, i, s)
			if len(cand) == 0 {
				continue
			}
			hits := s.hitsFor(len(cand))
			bo.HasRow(i, cand, hits)
			localCalls += int64(len(cand))
			nh := int64(0)
			for _, h := range hits {
				if h {
					nh++
				}
			}
			if nh == 0 {
				continue
			}
			base := cursor.Add(nh) - nh
			if base+nh > capEdges {
				overflow.Store(true)
				break
			}
			idx := base
			for k, j := range cand {
				if hits[k] {
					u32[idx] = int32(i)
					v32[idx] = j
					idx++
					atomic.AddInt64(&deg[j], 1)
				}
			}
			atomic.AddInt64(&deg[i], nh)
		}
		calls.Add(localCalls)
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
	edges := cursor.Load()
	res := scanResult{
		coo:   &graph.COO{N: m, U: u32[:edges], V: v32[:edges]},
		deg:   deg,
		calls: calls.Load(),
	}

	// CSR generation: on device if 2·|Ec| adjacency entries plus offsets fit
	// the spare budget (while the kernel buffers are still resident), else
	// the caller builds it on the host.
	csrBytes := 2*edges*4 + int64(m+1)*8
	if csrBytes <= dev.Free() {
		if b, err := dev.Alloc(csrBytes); err == nil {
			res.onDevice = true
			defer b.Free()
		}
	}
	return res, nil
}
