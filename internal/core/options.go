// Package core implements Picasso, the paper's palette-based iterative
// graph-coloring algorithm (Algorithm 1). Each iteration hands every active
// vertex a random list of L = α·log n candidate colors from a fresh palette
// of P colors, materializes only the *conflict subgraph* — the edges of the
// input whose endpoints share a candidate color, provably O(n·log³n) of
// them under the ∆/P = O(log n) assumption (§IV-C) — list-colors that small
// graph (Algorithm 2), and recurses on the vertices whose lists ran dry.
// The input graph itself is never stored: it is consulted through a
// graph.Oracle edge test, which for the quantum workload is the AND+popcount
// anticommutation check on encoded Pauli strings.
//
// # The backend seam
//
// Conflict-subgraph construction (Algorithm 1 line 7, Algorithm 3 on
// devices) is not implemented here: core dispatches it through the
// backend.ConflictBuilder interface. Options.Backend selects an
// implementation by name ("sequential", "parallel", "gpu"; empty selects
// automatically from Workers/Device), and Options.Builder injects an
// explicit instance. Core's contribution per iteration is the pair
// (edgeOracle, colorLists): the iteration-local adjacency view over the
// active vertices and the candidate lists, both satisfying the backend's
// interfaces.
//
// Every backend shares the palette-bucket kernel: vertices are
// bucketed by candidate color (an inverted index palette → vertices), and
// only pairs co-occurring in a bucket — exactly the pairs sharing a
// candidate color — are ever examined, deduplicated with a bitset. Per
// iteration that is Θ(Σ_c |bucket_c|²) pair tests instead of the Θ(m²) of a
// dense scan (the oracle-call counts are similar — a dense scan
// short-circuits on the list intersection — the savings are the per-pair
// intersection tests); IterStats.PairsTested reports the realized count.
//
// # The engine seam and the RunState lifecycle
//
// Run is the single entry point. The iteration loop is a staged engine
// (engine.go): assign → build → color → compact, with a cancellation check
// at every stage boundary. Options' schedule fields decide where it points:
// by default it runs over the whole vertex set as one unit; Stream runs it
// shard by shard against the fixed colors of the already-colored prefix
// (stream.go); Frozen points the same machinery at newly appended vertices
// behind a frozen prefix; Refine sends a finished coloring's smallest
// classes back through it (refine.go); and Portfolio races several
// configurations of it (portfolio.go). Observers see the seam through two
// Options hooks: Progress receives each iteration's IterStats, and
// Checkpoint receives a RunState — the serializable snapshot of the engine
// (iteration, palette base, active ids, partial coloring, shard cursors).
//
// A RunState moves through three stations. It is *captured* at every
// completed shard of a streamed run (a full copy of the partial coloring,
// so capture is deliberately per-shard, not per-iteration); every captured
// snapshot is *resumable* (RunState.Resumable — no unit in flight,
// frontier registered); and Run with Options.Resume *restores* a snapshot
// into a fresh engine, which continues deterministically because each
// shard unit's randomness is derived from (Seed, shard start), never from
// run history. Snapshots own their slices, so holding or serializing one is
// always safe.
//
// # Speculative shard execution
//
// Every stream runs one shard loop over groups of shards (streamShards in
// speculate.go). A group of one shard is the plain stream; Options.Speculate
// widens groups to S shards colored concurrently against the same frozen
// frontier, then repairs cross-shard collisions canonically, each lane on
// its own resources (arena, conflict builder, child memtrack of the run's
// tracker — whose peak covers the lanes combined). The result is proper and
// deterministic per seed, not bit-identical to one-shard groups; the one
// exception is a budgeted stream whose lanes' interleaved peak straddles
// the budget, which can vary between reruns, because lane timing decides
// whether a group crossed the budget and so halved the next shard. When the
// budget cannot hold the combined footprints the governor holds the run to
// one lane, which is the plain stream bit for bit; either way every
// published checkpoint is resumable and cancellation lands at the same
// stage boundaries.
package core

import (
	"fmt"
	"math"

	"picasso/internal/backend"
	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// ListStrategy selects how the conflict graph is list-colored.
type ListStrategy string

// Conflict-graph coloring strategies (paper §IV-B). The dynamic bucketed
// strategy is the paper's Algorithm 2 and its default; static orders are
// the comparison points of the ablation study.
const (
	DynamicBuckets ListStrategy = "dynamic" // Algorithm 2: most-constrained first
	StaticNatural  ListStrategy = "natural"
	StaticLargest  ListStrategy = "largest" // largest conflict-degree first
	StaticRandom   ListStrategy = "random"
)

// Variant selects the coloring problem the run solves. The palette
// machinery is identical across variants; a variant only changes which
// candidate a vertex prefers (equitable) or which oracle the conflicts are
// tested against (distance-2).
type Variant string

// Coloring variants.
const (
	// VariantStandard is plain proper coloring — adjacent vertices differ.
	VariantStandard Variant = ""
	// VariantEquitable additionally drives the color-class sizes toward
	// each other: every candidate pick is biased toward the currently
	// smallest feasible class, and a post-pass merges and rebalances
	// classes until the sizes are within ±1 where the graph permits
	// (graph.VerifyEquitable checks the outcome). Append runs (Frozen)
	// skip the post-pass — a frozen prefix must stay bit-identical.
	VariantEquitable Variant = "equitable"
	// VariantDistance2 colors so vertices at distance ≤ 2 differ. The
	// engine itself is unchanged: the input layer (jobspec, the CLIs)
	// wraps the graph in its square (graph.NewSquare), whose batched
	// row oracle feeds the same bucket conflict kernel; core accepts the
	// name so the variant rides Options end to end.
	VariantDistance2 Variant = "distance2"
)

// Options parameterizes a Picasso run. The two headline knobs are the
// palette fraction P (paper: percent of |V|) and the list-size factor α.
type Options struct {
	// PaletteFrac is the palette size as a fraction of the current active
	// vertex count, e.g. 0.125 for the paper's "Normal" 12.5%. Ignored
	// when PaletteSize > 0.
	PaletteFrac float64
	// PaletteSize optionally fixes the palette size in absolute colors.
	PaletteSize int
	// Alpha scales the list size: L = ceil(Alpha · log10 n), clamped to
	// [1, palette size]. The decimal log matches the paper's reported
	// operating points: with α = 2 and n ≈ 8700 it gives L = 8, which
	// reproduces the ≤5–6% conflict-edge ratios of §VII-A1 (a natural or
	// binary log would put the L²/P collision rate near 1).
	Alpha float64
	// Seed drives all randomness (list sampling, bucket tie-breaking).
	Seed int64
	// Workers sets the parallelism of conflict-graph construction:
	// 1 = the paper's "CPU only" sequential build, 0 = GOMAXPROCS.
	Workers int
	// Device, when non-nil, routes conflict-graph construction through the
	// simulated GPU (Algorithm 3) with its memory budget.
	Device *gpusim.Device
	// Strategy picks the conflict-graph coloring algorithm.
	Strategy ListStrategy
	// Variant selects the coloring problem: "" (standard proper coloring),
	// "equitable" (class sizes driven to ±1 where feasible), or
	// "distance2" (two-hop conflicts; the caller supplies the squared
	// oracle — see the Variant constants).
	Variant Variant
	// MaxIterations bounds the outer loop; when exceeded the remaining
	// vertices receive fresh singleton colors (always proper) and the run
	// is flagged. 0 means the default of 64.
	MaxIterations int
	// Tracker, when non-nil, receives host memory accounting (Table IV).
	Tracker *memtrack.Tracker
	// Backend names the conflict-construction backend (backend.Names):
	// "sequential", "parallel", "gpu", or "" / "auto" to select from
	// Workers/Device automatically. The named backend still draws its
	// resources from this struct (Workers, Device), so e.g. "gpu" without a
	// Device is a validation error.
	Backend string
	// Builder, when non-nil, is an explicit conflict-builder instance and
	// overrides Backend — the injection point for other implementations
	// (tests, instrumentation wrappers).
	Builder backend.ConflictBuilder
	// Progress, when non-nil, is invoked once per completed iteration of
	// Algorithm 1 with that iteration's statistics, before the next
	// iteration starts. It is called synchronously from the coloring
	// goroutine, so long-running observers should hand the stats off and
	// return quickly. Long-running callers (the coloring service) use it to
	// report live iteration/edge counts instead of only the final summary.
	Progress func(IterStats)
	// Arena, when non-nil, pools every iteration-scoped buffer of the run —
	// candidate lists, kernel scratch, edge buffers, conflict CSR, coloring
	// worklists — and retains them across runs, so a caller that colors
	// repeatedly (a service worker, a tuning sweep) reaches a near-zero-
	// allocation steady state. An Arena must not be shared between
	// concurrent runs. When nil, the run uses a private arena (identical
	// code path, fresh buffers).
	Arena *Arena

	// The schedule: with none of these five fields set, Run colors the whole
	// vertex set as one unit. Each replaces a choice of entry point, so Run
	// rejects the combinations no single run can honor (see Run).
	//
	// Stream selects the partitioned streaming engine: the vertex set is
	// colored in shards, each pruned against the fixed colors of the
	// already-colored prefix, so live memory follows the shard size instead
	// of n.
	Stream bool
	// Frozen is a complete proper coloring of the first len(Frozen)
	// vertices (trusted, not re-verified): the run colors only the vertices
	// [len(Frozen), n) against it, on the streaming engine, and returns
	// Frozen's entries bit-identical — the append operation. When it covers
	// all n vertices it is instead the input coloring of the Refine pass,
	// and no coloring phase runs.
	Frozen graph.Coloring
	// Resume continues a streamed run from a shard-boundary snapshot
	// (Resumable() must hold) taken by Checkpoint, with the same oracle and
	// Options. With a fixed ShardSize every remaining shard colors exactly
	// as it would have in the uninterrupted run; budget-derived shard sizes
	// may adapt differently after a resume (the new tracker has its own peak
	// history), moving shard boundaries — the coloring stays proper either
	// way.
	Resume *RunState
	// Refine, when non-nil, sends the finished coloring through the
	// palette-refinement pass (refine.go): Result.Colors is the refined
	// coloring and Result.Refine records the pass.
	Refine *RefineOptions
	// Portfolio, when non-nil, races entrant configurations of the run and
	// keeps the deterministic winner (portfolio.go); Result.Portfolio
	// records the race.
	Portfolio *PortfolioOptions

	// ShardSize, when > 0, fixes the streaming shard size: a streamed run
	// colors the vertex set B vertices at a time, so iteration-scoped memory
	// scales with B instead of n. 0 derives the shard size from
	// MemoryBudgetBytes (or a size-based default). Ignored by one-shot runs.
	ShardSize int
	// MemoryBudgetBytes, when > 0, arms the run's tracker with a host-memory
	// budget. A streamed run sizes its shards to keep the tracked peak under
	// it, shrinking after any crossing (graceful degradation — the run
	// completes rather than OOMing, and Result.BudgetExceeded reports any
	// violation). When no Tracker is supplied, a private one is created so
	// the budget is always enforced against real accounting.
	MemoryBudgetBytes int64
	// Checkpoint, when non-nil, receives a RunState snapshot after each
	// completed shard of a streamed run — always a resumable boundary
	// (Resumable() == true), so every snapshot can be serialized and later
	// passed back as Resume. Snapshots own their slices (a full copy of
	// the coloring, which is why they are per-shard, not per-iteration;
	// per-iteration observability is Progress's job). One-shot runs never
	// checkpoint. Called synchronously from the coloring goroutine.
	Checkpoint func(RunState)
	// Speculate, when ≥ 2, colors up to that many streamed shards
	// concurrently against the same frozen frontier, then repairs
	// cross-shard collisions: lane by lane (canonical ascending order),
	// colliding vertices are detected with the fixed-color pass's frontier
	// scan and recolored against the frozen remainder by the refinement
	// machinery. The result is proper and deterministic per seed, but not
	// bit-identical to the plain stream (later lanes cannot see earlier
	// lanes' colors while coloring). Under MemoryBudgetBytes, a run whose
	// lanes' interleaved peak straddles the budget can vary between
	// reruns: lane timing decides whether a group crossed the budget, and
	// a crossing halves the next shard. Checkpoints land only at fully
	// repaired group boundaries. 0 and 1 disable. The budget governor
	// reduces the lane count (down to one, the plain stream) when
	// MemoryBudgetBytes cannot fit that many worst-case shards. Requires an
	// oracle that is safe for concurrent readers (every built-in oracle is).
	Speculate int

	// builderInjected remembers that the caller supplied Builder explicitly
	// (set by validate): a single injected instance is bound to one arena,
	// so concurrent stream lanes cannot be derived from it and speculation
	// runs on one lane.
	builderInjected bool
}

// Normal returns the paper's "Norm." configuration: P = 12.5%, α = 2.
func Normal(seed int64) Options {
	return Options{PaletteFrac: 0.125, Alpha: 2, Seed: seed, Strategy: DynamicBuckets}
}

// Aggressive returns the paper's "Aggr." configuration: P = 3%, α = 30.
func Aggressive(seed int64) Options {
	return Options{PaletteFrac: 0.03, Alpha: 30, Seed: seed, Strategy: DynamicBuckets}
}

// validate fills defaults and rejects nonsense.
func (o *Options) validate() error {
	if o.PaletteSize < 0 {
		return fmt.Errorf("core: negative palette size %d", o.PaletteSize)
	}
	if o.PaletteSize == 0 {
		if o.PaletteFrac <= 0 || o.PaletteFrac > 1 {
			return fmt.Errorf("core: palette fraction %v outside (0, 1]", o.PaletteFrac)
		}
	}
	if o.Alpha <= 0 {
		return fmt.Errorf("core: alpha %v must be positive", o.Alpha)
	}
	if o.Strategy == "" {
		o.Strategy = DynamicBuckets
	}
	switch o.Strategy {
	case DynamicBuckets, StaticNatural, StaticLargest, StaticRandom:
	default:
		return fmt.Errorf("core: unknown list strategy %q", o.Strategy)
	}
	switch o.Variant {
	case VariantStandard, VariantEquitable, VariantDistance2:
	default:
		return fmt.Errorf("core: unknown coloring variant %q", o.Variant)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 64
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("core: negative max iterations")
	}
	if o.ShardSize < 0 {
		return fmt.Errorf("core: negative shard size %d", o.ShardSize)
	}
	if o.MemoryBudgetBytes < 0 {
		return fmt.Errorf("core: negative memory budget %d", o.MemoryBudgetBytes)
	}
	if o.Speculate < 0 {
		return fmt.Errorf("core: negative speculation width %d", o.Speculate)
	}
	o.meter()
	if o.Arena == nil {
		o.Arena = NewArena()
	}
	o.builderInjected = o.Builder != nil
	if o.Builder == nil {
		b, err := o.newBuilder(o.Arena)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		o.Builder = b
	}
	return nil
}

// newBuilder builds the configured backend (Backend, Workers, Device) over
// ar's conflict-construction pool: the run's builder, and each further
// speculative lane's.
func (o *Options) newBuilder(ar *Arena) (backend.ConflictBuilder, error) {
	return backend.New(o.Backend, backend.Config{Workers: o.Workers, Device: o.Device, Arena: ar.be})
}

// meter gives a budgeted run a private tracker when the caller supplied
// none: a budget without a meter is unenforceable, and shard sizing and
// Result.BudgetExceeded need one.
func (o *Options) meter() {
	if o.MemoryBudgetBytes > 0 && o.Tracker == nil {
		o.Tracker = &memtrack.Tracker{}
	}
}

// checkSchedule rejects schedule combinations that no single run can honor
// (a *ScheduleError), and the arguments the schedule fields carry: a
// Frozen coloring longer than n or holding an uncolored vertex, a refine
// input that does not cover n, and a RunState that cannot continue a run
// over n vertices.
func (o *Options) checkSchedule(n int) error {
	switch {
	case o.Frozen != nil && o.Resume != nil:
		return &ScheduleError{"Frozen with Resume"}
	case o.Portfolio != nil && o.Frozen != nil:
		return &ScheduleError{"Portfolio with Frozen"}
	case o.Portfolio != nil && o.Resume != nil:
		return &ScheduleError{"Portfolio with Resume"}
	}
	if o.Resume != nil {
		return o.Resume.validate(n)
	}
	if len(o.Frozen) > n {
		return fmt.Errorf("core: %d frozen colors for %d vertices", len(o.Frozen), n)
	}
	if o.Refine != nil && o.Frozen != nil && len(o.Frozen) != n {
		return fmt.Errorf("core: refine input covers %d of %d vertices", len(o.Frozen), n)
	}
	for v, c := range o.Frozen {
		if c == graph.Uncolored {
			return fmt.Errorf("core: frozen vertex %d is uncolored", v)
		}
	}
	return nil
}

// ScheduleError reports Options schedule fields that no single run can
// honor together, such as resuming a checkpoint behind a frozen prefix.
type ScheduleError struct{ Conflict string }

func (e *ScheduleError) Error() string { return "core: schedule conflict: " + e.Conflict }

// streamLanes reports how many stream units the options allow in flight at
// once: Speculate lanes, 1 otherwise. An injected Builder forces 1 — it is
// bound to a single arena and cannot be cloned for a second lane. The
// budget governor may reduce the answer further (streamRun).
func (o *Options) streamLanes() int {
	if o.builderInjected || o.Speculate < 2 {
		return 1
	}
	return o.Speculate
}

// paletteFor computes the iteration's palette size Pℓ for n active vertices.
func (o *Options) paletteFor(n int) int {
	p := o.PaletteSize
	if p == 0 {
		p = int(math.Round(o.PaletteFrac * float64(n)))
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

// listSizeFor computes Lℓ = ceil(α·log10 n), clamped to [1, palette].
func (o *Options) listSizeFor(n, palette int) int {
	l := int(math.Ceil(o.Alpha * math.Log10(float64(n))))
	if l < 1 {
		l = 1
	}
	if l > palette {
		l = palette
	}
	return l
}
