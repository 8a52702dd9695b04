// Package picasso is a memory-efficient palette-based graph colorer with a
// quantum-computing front end, reproducing "Picasso: Memory-Efficient Graph
// Coloring Using Palettes With Applications in Quantum Computing" (Ferdous
// et al., IPDPS 2024).
//
// The library solves the unitary-partitioning problem: given a large set of
// Pauli strings, group them into few classes of mutually anticommuting
// strings so each class can be measured as a single unitary. The grouping
// is a clique partition of the anticommutation graph, computed as a proper
// coloring of its ~50%-dense complement — a graph Picasso colors without
// ever materializing it. Each iteration samples a random candidate-color
// list per vertex from a fresh palette, builds only the provably small
// conflict subgraph, list-colors it most-constrained-first, and recurses on
// the vertices whose lists ran dry.
//
// Every coloring is one Run call. Basic use on Pauli strings:
//
//	set, _ := picasso.ParsePauliStrings([]string{"IXYZ", "XXII", "ZZYX"})
//	res, _ := picasso.Run(ctx, picasso.NewPauliOracle(set), picasso.Normal(1))
//	groups := picasso.Groups(set, res.Colors)
//
// Basic use on any graph, via an edge oracle that is consulted on demand:
//
//	o := picasso.RandomGraph(100000, 0.5, 42)
//	res, _ := picasso.Run(ctx, o, picasso.Aggressive(7))
//
// The schedule is data in Options: Stream (shards under MemoryBudgetBytes),
// Frozen (append to a finished coloring), Resume (continue from a
// checkpoint), Refine (claw colors back afterwards) and Portfolio (race
// configurations and keep the best):
//
//	opts := picasso.Normal(1)
//	opts.Stream, opts.MemoryBudgetBytes = true, 256<<20
//	opts.Refine = &picasso.RefineOptions{}
//	res, _ = picasso.Run(ctx, o, opts) // streamed, then refined
//
// The simulated accelerator reproduces the paper's GPU path, including its
// memory-budget behavior:
//
//	opts = picasso.Normal(1)
//	opts.Device = picasso.NewA100()
//	res, err := picasso.Run(ctx, o, opts) // err is OOM when the budget bursts
//
// Conflict-graph construction is pluggable: Options.Backend names one of the
// built-in backends (Backends lists them — sequential, parallel, gpu), all
// of which share the palette-bucket inverted-index kernel and produce
// bit-identical colorings:
//
//	opts.Backend = "parallel"
package picasso

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"picasso/internal/backend"
	"picasso/internal/chem"
	"picasso/internal/core"
	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/mlpredict"
	"picasso/internal/pauli"
	"picasso/internal/workload"
)

// Core aliases: the full option/result surface of the algorithm.
type (
	// Options parameterizes a run; see Normal and Aggressive for the
	// paper's two operating points.
	Options = core.Options
	// Result carries the coloring, per-iteration statistics, timing
	// breakdown and memory peak.
	Result = core.Result
	// IterStats is one iteration of Algorithm 1.
	IterStats = core.IterStats
	// ListStrategy selects the conflict-graph coloring algorithm.
	ListStrategy = core.ListStrategy
	// Variant selects the coloring variant: standard, equitable (color
	// classes within one of each other in size), or distance-2 (two-hop
	// conflicts, via the squared input graph).
	Variant = core.Variant
	// Coloring is a color per vertex.
	Coloring = graph.Coloring
	// Oracle is an implicit graph: NumVertices plus an edge test.
	Oracle = graph.Oracle
	// CSR is a materialized graph in compressed-sparse-row form — the
	// parsed result of a general-graph input file or a benchmark
	// generator. It implements Oracle.
	CSR = graph.CSR
	// GraphFormat names a general-graph file format ParseGraph understands.
	GraphFormat = graph.Format
	// PauliSet is a flat collection of Pauli strings.
	PauliSet = pauli.Set
	// PauliString is a single tensor product of Pauli operators.
	PauliString = pauli.String
	// Molecule identifies a hydrogen-system instance (Hn, geometry, basis).
	Molecule = chem.Molecule
	// Device is a simulated memory-limited accelerator.
	Device = gpusim.Device
	// MemoryTracker is the accounting model behind Table IV, exact for
	// what it charges (ARCHITECTURE.md lists what it does not).
	MemoryTracker = memtrack.Tracker
	// ConflictBuilder is the pluggable conflict-construction backend:
	// Options.Backend selects a built-in one by name (see Backends), and
	// Options.Builder injects a custom instance.
	ConflictBuilder = backend.ConflictBuilder
	// BuildStats reports how one conflict-graph construction went (device
	// residency, memory peaks, oracle consultations).
	BuildStats = backend.Stats
	// Arena pools every iteration-scoped buffer of a run (candidate lists,
	// kernel scratch, edge buffers, conflict CSR, coloring worklists).
	// Set Options.Arena to reuse one across runs — a caller that colors
	// repeatedly reaches a near-zero-allocation steady state. Not safe for
	// concurrent use: one arena per goroutine.
	Arena = core.Arena
	// BatchEdgeOracle is an edge oracle answering whole candidate rows at
	// once — the extension point for custom oracles that can hoist a row's
	// vertex data out of the per-pair test (see backend.AsBatch; plain
	// EdgeOracles are adapted automatically).
	BatchEdgeOracle = backend.BatchEdgeOracle
	// RunState is a serializable engine snapshot taken at stage boundaries
	// (Options.Checkpoint). A shard-boundary snapshot (Resumable()) resumes
	// a streamed run as Options.Resume.
	RunState = core.RunState
	// RefineOptions shapes a palette-refinement pass (rounds, target color
	// count, stall detection, per-round moved-set cap, wall-clock cap, the
	// pass's own memory budget).
	RefineOptions = core.RefineOptions
	// RefineStats is the outcome of a refinement pass: the refined coloring
	// plus per-round and aggregate work records.
	RefineStats = core.RefineStats
	// RefineRound records one refinement round.
	RefineRound = core.RefineRound
	// PortfolioOptions shapes a portfolio race (entrant count or explicit
	// variant list, concurrency cap).
	PortfolioOptions = core.PortfolioOptions
	// PortfolioStats records a race (Result.Portfolio): the winner,
	// per-entrant stats and the count of entrants stopped early.
	PortfolioStats = core.PortfolioStats
	// ScheduleError reports Options schedule fields that no single run can
	// honor together (e.g. Frozen with Resume).
	ScheduleError = core.ScheduleError
	// EntrantStats describes one portfolio entrant's run; its Name spells
	// out the entrant's configuration.
	EntrantStats = core.EntrantStats
)

// MaxPortfolioEntrants caps the entrants of a portfolio race.
const MaxPortfolioEntrants = core.MaxPortfolioEntrants

// Coloring variants (Options.Variant).
const (
	// VariantStandard is the plain proper coloring (the default).
	VariantStandard = core.VariantStandard
	// VariantEquitable biases candidate picks toward the smallest feasible
	// color class and balances classes in a post-pass: class sizes end
	// within one of each other wherever the coloring permits
	// (VerifyEquitable checks the guarantee).
	VariantEquitable = core.VariantEquitable
	// VariantDistance2 colors so vertices within two hops differ — run the
	// engine on SquareOf(g); the jobspec layer does the squaring for graph
	// inputs automatically.
	VariantDistance2 = core.VariantDistance2
)

// General-graph file formats (see ParseGraph).
const (
	FormatDIMACS       = graph.FormatDIMACS
	FormatMatrixMarket = graph.FormatMatrixMarket
	FormatEdgeList     = graph.FormatEdgeList
)

// Conflict-graph coloring strategies.
const (
	// DynamicBuckets is the paper's Algorithm 2 (default, best quality).
	DynamicBuckets = core.DynamicBuckets
	// StaticNatural colors the conflict graph in vertex order.
	StaticNatural = core.StaticNatural
	// StaticLargest colors by decreasing conflict degree.
	StaticLargest = core.StaticLargest
	// StaticRandom colors in a random order.
	StaticRandom = core.StaticRandom
)

// NewArena returns an empty buffer arena for Options.Arena. Buffers grow to
// the largest run seen and are retained, so a long-lived caller (service
// worker, benchmark loop, tuning sweep) recolors with near-zero garbage:
//
//	arena := picasso.NewArena()
//	opts := picasso.Normal(1)
//	opts.Arena = arena
//	for _, job := range jobs { res, _ := picasso.Run(ctx, job, opts); ... }
func NewArena() *Arena { return core.NewArena() }

// Normal returns the paper's "Norm." configuration: palette 12.5% of |V|,
// α = 2 — the memory-optimal operating point.
func Normal(seed int64) Options { return core.Normal(seed) }

// Aggressive returns the paper's "Aggr." configuration: palette 3% of |V|,
// α = 30 — the quality-optimal operating point.
func Aggressive(seed int64) Options { return core.Aggressive(seed) }

// Run colors the oracle under the schedule Options describes — one-shot,
// streamed (Stream), appended (Frozen), resumed (Resume), raced
// (Portfolio), each optionally followed by a refinement pass (Refine) — and
// returns a proper coloring of every vertex. The graph is never
// materialized; memory stays sublinear in the edge count under the paper's
// ∆/P assumption, and ctx cancels the run within one engine stage. See
// core.Run for the combinations it accepts.
func Run(ctx context.Context, o Oracle, opts Options) (*Result, error) {
	return core.Run(ctx, o, opts)
}

// NewPauliOracle returns the commutation-graph oracle of a Pauli-string
// set: coloring it yields a clique partition of the anticommutation graph,
// the unitary grouping.
func NewPauliOracle(set *PauliSet) Oracle { return core.NewPauliOracle(set) }

// ColorContext is Run with the Stream flag off.
func ColorContext(ctx context.Context, o Oracle, opts Options) (*Result, error) {
	opts.Stream = false
	return core.Run(ctx, o, opts)
}

// ColorPauliContext is ColorContext over a Pauli set's commutation graph.
func ColorPauliContext(ctx context.Context, set *PauliSet, opts Options) (*Result, error) {
	return ColorContext(ctx, NewPauliOracle(set), opts)
}

// Stream is Run with the Stream flag on.
func Stream(ctx context.Context, o Oracle, opts Options) (*Result, error) {
	opts.Stream = true
	return core.Run(ctx, o, opts)
}

// StreamPauli is Stream over a Pauli set's commutation graph.
func StreamPauli(ctx context.Context, set *PauliSet, opts Options) (*Result, error) {
	return Stream(ctx, NewPauliOracle(set), opts)
}

// Refine is Run with prev, a complete coloring, as Options.Frozen and ropts
// as Options.Refine: it returns the refinement pass's record, whose Colors
// is the refined coloring (prev is untouched).
func Refine(ctx context.Context, o Oracle, prev Coloring, opts Options, ropts RefineOptions) (*RefineStats, error) {
	opts.Frozen, opts.Refine = prev, &ropts
	res, err := core.Run(ctx, o, opts)
	if err != nil {
		return nil, err
	}
	return res.Refine, nil
}

// RefinePauli is Refine over a Pauli set's commutation graph.
func RefinePauli(ctx context.Context, set *PauliSet, prev Coloring, opts Options, ropts RefineOptions) (*RefineStats, error) {
	return Refine(ctx, NewPauliOracle(set), prev, opts, ropts)
}

// ParsePauliStrings builds a set from letter strings such as "IXYZ". All
// strings must share one length.
func ParsePauliStrings(strs []string) (*PauliSet, error) {
	if len(strs) == 0 {
		return nil, fmt.Errorf("picasso: empty string list")
	}
	set := pauli.NewSetCapacity(len(strs[0]), len(strs))
	for i, s := range strs {
		p, err := pauli.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("picasso: string %d: %w", i, err)
		}
		if p.Len() != set.Qubits() {
			return nil, fmt.Errorf("picasso: string %d has length %d, want %d", i, p.Len(), set.Qubits())
		}
		set.Append(p)
	}
	return set, nil
}

// BuildMolecule constructs the Pauli-string workload of a named hydrogen
// system (e.g. "H6 3D sto3g"), the synthetic-integral equivalent of the
// paper's Table II instances. targetTerms grows the instance with
// coupled-cluster-style ansatz products toward the requested size
// (0 = bare Hamiltonian).
func BuildMolecule(name string, targetTerms int) (*PauliSet, error) {
	mol, err := chem.ParseMolecule(name)
	if err != nil {
		return nil, err
	}
	opts := chem.DefaultHamiltonianOptions()
	if targetTerms <= 0 {
		return chem.BuildHamiltonian(mol, opts)
	}
	return chem.BuildToTarget(mol, opts, targetTerms)
}

// Groups converts a coloring of the commutation graph into the unitary
// groups: slices of string indices, one per color class in ascending color
// order, each a clique of the anticommutation graph. Color ids may be
// arbitrarily sparse (iteration palettes leave gaps), so the class map is
// walked by its sorted keys, not probed color-by-color.
func Groups(set *PauliSet, c Coloring) [][]int {
	return ColorGroups(c)
}

// ColorGroups converts any coloring into its color classes: slices of
// vertex indices, one per color in ascending color order. For Pauli inputs
// these are the unitary groups (see Groups); for plain oracles they are the
// independent sets of the colored graph. Color ids may be arbitrarily
// sparse (iteration palettes leave gaps), so the class map is walked by its
// sorted keys, not probed color-by-color.
func ColorGroups(c Coloring) [][]int {
	classes := graph.ColorClasses(c)
	cols := make([]int32, 0, len(classes))
	for col := range classes {
		cols = append(cols, col)
	}
	slices.Sort(cols)
	out := make([][]int, 0, len(classes))
	for _, col := range cols {
		members := classes[col]
		g := make([]int, len(members))
		for i, v := range members {
			g[i] = int(v)
		}
		out = append(out, g)
	}
	return out
}

// VerifyGrouping checks end to end that the coloring is a proper coloring
// of the commutation graph AND a clique partition of the anticommutation
// graph — the application-level guarantee of Definition 1.
func VerifyGrouping(set *PauliSet, c Coloring) error {
	if err := graph.VerifyOracle(core.NewPauliOracle(set), c); err != nil {
		return err
	}
	return graph.VerifyCliquePartition(core.AnticommuteOracle{Set: set}, c)
}

// RandomGraph returns a deterministic Erdős–Rényi G(n, density) edge oracle
// computed from hashes: zero storage at any density.
func RandomGraph(n int, density float64, seed uint64) Oracle {
	return graph.RandomOracle{N: n, P: density, Seed: seed}
}

// ParseGraph parses a general-graph file payload — DIMACS .col, Matrix
// Market .mtx, or a whitespace edge list, auto-detected — into CSR form.
// Every spelling of the same edge set (any format, any edge order, with or
// without duplicates) parses to an identical CSR, so content-addressed
// dedup works across formats.
func ParseGraph(data []byte) (*CSR, GraphFormat, error) {
	return graph.ParseGraph(data)
}

// GraphBenchmark builds a classic coloring benchmark instance by name:
// the DIMACS queen ("queen9_9") and Mycielski ("myciel5") families plus a
// register-allocation-style interference family ("reg4096"). Instances are
// generated deterministically — a benchmark name fully identifies its graph.
func GraphBenchmark(name string) (*CSR, error) {
	g, _, err := workload.LookupGraph(name)
	return g, err
}

// SquareOf returns the distance-2 oracle of a materialized graph: vertices
// are adjacent iff they are within two hops of each other. A proper
// coloring of the square is a distance-2 coloring of g (VariantDistance2).
func SquareOf(g *CSR) Oracle { return graph.NewSquare(g) }

// VerifyEquitable checks the equitable guarantee on top of Verify: every
// pair of color classes differs in size by at most one.
func VerifyEquitable(c Coloring) error { return graph.VerifyEquitable(c) }

// ComplementOf returns the complement view of an oracle.
func ComplementOf(o Oracle) Oracle { return graph.Complement{G: o} }

// NewDevice returns a simulated accelerator with the given byte budget and
// worker parallelism (0 workers = GOMAXPROCS).
func NewDevice(name string, capacity int64, workers int) *Device {
	return gpusim.NewDevice(name, capacity, workers)
}

// NewA100 returns the paper's 40 GB device.
func NewA100() *Device { return gpusim.NewA100() }

// Backends lists the conflict-construction backend names, "auto" first.
// Set Options.Backend to one of these names; "auto" (or the empty string)
// picks from Workers/Device.
func Backends() []string { return backend.Names() }

// Verify checks that a coloring is proper and complete on an oracle.
func Verify(o Oracle, c Coloring) error { return graph.VerifyOracle(o, c) }

// Tune measures the paper's (P′, α) grid on the given oracle and returns the
// Options minimizing the §VI objective β·colors + (1−β)·conflict-work
// (both min-max normalized over the grid). β → 1 optimizes quality,
// β → 0 optimizes memory and runtime. This is the sweep underlying the
// paper's ML predictor; cmd/trainpredictor trains the random-forest model
// on many such sweeps.
//
// Tune evaluates a compact 5×4 grid — P′ ∈ {1%, 3%, 6.25%, 12.5%, 20%},
// α ∈ {0.5, 1, 2, 4.5} — spanning the same (memory-lean … quality-lean)
// range as mlpredict.DefaultPFracs/DefaultAlphas' full 9×9 grid at a
// twentieth of the cost; cmd/trainpredictor is the entry point for full-grid
// sweeps. The grid points run as a portfolio race of one-shot entrants, which
// never checkpoint and so are never cancelled — every cell completes, as the
// objective mixing color count with conflict work needs — with up to
// GOMAXPROCS cells in flight, so a multi-core tune finishes in roughly the
// wall-clock of its slowest cell; each cell's measurement is identical to
// the lone one-shot run the historical sequential sweep made.
//
// An optional backend name (see Backends) runs the sweep — and stamps the
// returned Options — with that conflict-construction backend, so tuning
// measures the execution path the tuned configuration will actually use.
func Tune(o Oracle, beta float64, seed int64, backendName ...string) (Options, error) {
	if beta < 0 || beta > 1 {
		return Options{}, fmt.Errorf("picasso: beta %v outside [0, 1]", beta)
	}
	be := ""
	switch len(backendName) {
	case 0:
	case 1:
		be = backendName[0]
	default:
		return Options{}, fmt.Errorf("picasso: Tune takes at most one backend name, got %d", len(backendName))
	}
	pfracs := []float64{0.01, 0.03, 0.0625, 0.125, 0.2}
	alphas := []float64{0.5, 1, 2, 4.5}
	variants := make([]Options, 0, len(pfracs)*len(alphas))
	for _, pf := range pfracs {
		for _, a := range alphas {
			variants = append(variants, Options{PaletteFrac: pf, Alpha: a, Seed: seed, Backend: be})
		}
	}
	base := variants[0]
	base.Portfolio = &PortfolioOptions{Variants: variants, MaxConcurrent: runtime.GOMAXPROCS(0)}
	res, err := core.Run(context.Background(), o, base)
	if err != nil {
		return Options{}, fmt.Errorf("picasso: tune sweep: %w", err)
	}
	sweep := mlpredict.SweepResult{V: o.NumVertices()}
	for i, e := range res.Portfolio.Entrants {
		sweep.Points = append(sweep.Points, mlpredict.SweepPoint{
			PFrac:            variants[i].PaletteFrac,
			Alpha:            variants[i].Alpha,
			Colors:           e.Colors,
			MaxConflictEdges: e.MaxConflictEdges,
		})
	}
	best := sweep.OptimalFor(beta)
	return Options{PaletteFrac: best.PFrac, Alpha: best.Alpha, Seed: seed, Backend: be}, nil
}
