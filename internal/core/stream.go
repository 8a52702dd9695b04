// Streaming partitioned coloring: color the vertex set in shards of size B
// against the fixed colors of everything colored before, so iteration-scoped
// memory follows the shard, not the graph. Each shard runs the full staged
// engine (engine.go) over its own palette windows starting at color 0 —
// colors are *reused* across shards, and cross-shard properness comes from
// the fixed-color pass pruning any candidate a frozen neighbor already
// holds. Under a memory budget the shard size is derived from a worst-case
// estimate, then resized from the measured per-vertex footprint after every
// shard group — growing into unused headroom, halving after a crossing — so
// a run degrades gracefully instead of OOMing. streamRun sets a stream up
// and hands it to the one shard loop (streamShards, speculate.go), which
// runs groups of one shard by default and groups of S speculative shards
// under Options.Speculate. Between groups the engine is at a serializable
// boundary: runs checkpoint, cancel, resume, and extend there.
package core

import (
	"context"

	"picasso/internal/backend"
	"picasso/internal/graph"
)

// minShard floors every derived shard size: below this the per-shard fixed
// costs dominate and further shrinking cannot help a budget.
const minShard = 256

// defaultShardSize picks the knob-free streaming shard size for n remaining
// vertices.
func defaultShardSize(n int) int {
	b := n / 8
	if b < 1024 {
		b = 1024
	}
	if b > 1<<16 {
		b = 1 << 16
	}
	return b
}

// streamRun prepares every streamed schedule — Frozen freezes a prefix
// coloring, Resume restores a checkpoint (checkSchedule allows at most
// one) — picks the lane count and the first shard size, and hands the run
// to the shard loop. The result is a proper coloring of the whole oracle;
// it differs from the one-shot coloring (shards reuse palette windows
// against the frozen frontier) but is proper by the same guarantees, and a
// frozen prefix comes back bit-identical while the statistics cover only
// the new work.
func streamRun(ctx context.Context, o graph.Oracle, opts *Options) (*Result, error) {
	prev, st := opts.Frozen, opts.Resume
	// Unconditional: 0 disarms, so a budget left on a reused tracker by an
	// earlier run cannot leak into this one's shard sizing or verdict. The
	// peak baseline drops to the caller's still-live bytes for the same
	// reason: a stale lifetime peak would both poison OverBudget and blind
	// nextShard's new-evidence test (peak <= peakBefore forever).
	opts.Tracker.SetBudget(opts.MemoryBudgetBytes)
	opts.Tracker.ResetPeak()
	e := newEngine(ctx, o, opts, true)
	// Equitable runs rebalance in finish — except appends, whose contract is
	// that the frozen prefix comes back bit-identical.
	e.balanceOnFinish = opts.Variant == VariantEquitable && prev == nil
	switch {
	case prev != nil:
		copy(e.colors[:len(prev)], prev)
		for _, c := range prev {
			if c >= e.ceil {
				e.ceil = c + 1
			}
		}
		e.fixedEnd, e.nextStart = len(prev), len(prev)
	case st != nil:
		copy(e.colors, st.Colors)
		// Trust the snapshot's ceiling only upward: recompute the floor from
		// the colors themselves (at a shard boundary ceil is exactly
		// max+1), so a zeroed/stale ceil field in a deserialized snapshot
		// cannot make a later fallback mint colors that collide with the
		// frozen frontier.
		e.ceil = st.Ceil
		for _, c := range st.Colors {
			if c >= e.ceil {
				e.ceil = c + 1
			}
		}
		e.fixedEnd, e.nextStart = st.NextStart, st.NextStart
		e.shardIdx = st.Shards
		e.res.Shards = st.Shards
		e.res.ResumedShards = st.Shards
		e.res.Fallback = st.Fallback
		e.priorExceeded = st.BudgetExceeded // a violation is never silent, even across a resume
	}

	baseline := e.tr.Current()
	shard := opts.ShardSize
	if shard == 0 && st != nil {
		shard = st.Shard
	}
	// The concurrency governor: how many shard units may hold iteration
	// memory at once. Speculation needs S in-flight footprints; under a
	// budget the lane count shrinks until the combined worst case fits the
	// headroom, degrading all the way to one lane (one-shard groups) rather
	// than letting MemoryBudgetBytes go quietly dishonest.
	lanes := 1
	if want := opts.streamLanes(); want > 1 {
		lanes = want
		if b := opts.MemoryBudgetBytes; b > 0 {
			for lanes > 1 && int64(lanes)*shardFootprint(opts, o, e.n, minShard) > b-baseline {
				lanes--
			}
		}
	}
	if shard == 0 {
		shard = autoShard(opts, o, e.n, e.n-e.nextStart, baseline, lanes)
	}
	if shard < 1 {
		shard = 1
	}
	if lanes > 1 && opts.MemoryBudgetBytes > 0 {
		// An explicit ShardSize skipped autoShard's per-lane sizing: re-check
		// that the requested shard fits the budget lanes-wide.
		for lanes > 1 && int64(lanes)*shardFootprint(opts, o, e.n, shard) > opts.MemoryBudgetBytes-baseline {
			lanes--
		}
	}
	e.shard = shard
	return e.streamShards(baseline, lanes)
}

// shardFootprint estimates the tracked bytes one streamed iteration holds
// for a shard of B vertices, assuming the densest admissible conflict
// subgraph (every bucket-sharing pair an edge). Deliberately worst-case:
// the initial shard must respect the budget before anything has been
// measured; nextShard replaces the estimate with measurement afterwards.
// The fixed-color pass's share (12 bytes per vertex beside the mask) is
// above what a frontier chunk's index charges (4 per indexed vertex plus
// 8 per color); the model sizes every budgeted stream's first shard, so
// lowering it moves streamed colorings and belongs with the change that
// charges the color stage's working set.
func shardFootprint(opts *Options, o graph.Oracle, n, B int) int64 {
	P := opts.paletteFor(B)
	L := opts.listSizeFor(B, P)
	lists := int64(4 * L)      // candidate lists
	buckets := int64(4*L + 24) // inverted index Vtx + RowWeight (+Off share)
	mask := int64(L + 12)      // forbidden mask + frontier chunk index
	var oracle int64           // compacted sub-view vertex data
	if ds, ok := o.(backend.DeviceSizer); ok && n > 0 {
		oracle = ds.DeviceBytes() / int64(n)
	}
	// Worst-case conflict edges for the shard: all ≈ B²L²/(2P) expected
	// bucket-sharing pairs become edges; COO and CSR adjacency coexist
	// during conversion at 8 bytes each per edge end.
	edges := int64(16) * int64(L) * int64(L) * int64(B) * int64(B) / int64(2*P)
	total := int64(B)*(4+lists+buckets+mask+oracle+32) + edges + int64(P)*16 + 4096
	return total * 5 / 4
}

// autoShard derives the initial shard size from the budget headroom: the
// largest B in [minShard, remaining] whose worst-case footprint fits lanes
// concurrent copies of (lanes is 1 for one-shard groups, S for speculation
// — each in-flight unit holds a full iteration footprint).
// Without a budget it falls back to the knob-free default. When even the
// minimum shard does not fit, it returns minShard
// anyway — the run degrades (and reports BudgetExceeded) instead of
// refusing.
func autoShard(opts *Options, o graph.Oracle, n, remaining int, baseline int64, lanes int) int {
	if remaining < 1 {
		return minShard
	}
	if lanes < 1 {
		lanes = 1
	}
	budget := opts.MemoryBudgetBytes
	if budget <= 0 {
		return defaultShardSize(remaining)
	}
	headroom := (budget - baseline) / int64(lanes)
	if shardFootprint(opts, o, n, minShard) >= headroom {
		return minShard
	}
	lo, hi := minShard, remaining
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if shardFootprint(opts, o, n, mid) <= headroom {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// nextShard resizes an auto-derived shard after each completed group of
// lanes units (1 for a one-shard group): halve after a budget crossing
// (graceful degradation), otherwise retarget from the measured per-vertex
// cost. peak is the run tracker's peak and peakBefore its peak when the
// group started: the budget is a promise about the lanes combined, and
// only a *new* peak above it means this group crossed it (the lifetime
// peak is monotone, so an old crossing must not keep halving shards that
// behaved). used is the finished unit's own bytes — a lane child
// tracker's peak, never inflated by a neighbor in flight, or for a
// one-shard group the run's peak above baseline when the shard set a new
// one. Zero means no fresh per-vertex evidence (the shard stayed below an
// older peak, or there is no tracker), and the proven size stands. The
// retarget keeps 30% headroom split across the lanes, inflates
// first-shard measurements (no frontier pass ran yet) by 25%, and is
// bounded to ×4 growth per step.
func nextShard(cur, lastLen int, used, budget, baseline, peak, peakBefore int64, hadFrontier bool, lanes int) int {
	if budget <= 0 || lastLen <= 0 {
		return cur
	}
	if lanes < 1 {
		lanes = 1
	}
	if peak > budget && peak > peakBefore {
		half := cur / 2
		if half < minShard {
			half = minShard
		}
		return half
	}
	if used < 1 {
		return cur
	}
	perVertex := (used + int64(lastLen) - 1) / int64(lastLen)
	if !hadFrontier {
		perVertex = perVertex * 5 / 4
	}
	target := (budget - baseline) * 7 / 10 / int64(lanes) / perVertex
	next := target
	if grown := int64(cur) * 4; next > grown {
		next = grown
	}
	if next < minShard {
		next = minShard
	}
	return int(next)
}
