// Command picasso colors a graph or a Pauli-string workload with the
// palette-based algorithm and reports quality, work and memory statistics.
//
// Inputs (choose one):
//
//	-molecule "H6 3D sto3g"   a Table II instance (synthetic integrals)
//	-strings file.txt         one Pauli string per line ("IXYZ", ...)
//	-random n:density         a hashed Erdős–Rényi dense graph
//	-graph queen9_9           a benchmark-family instance (queen/myciel/reg)
//	-graph graph.col          a graph file: DIMACS, Matrix Market, or edge list
//
// Examples:
//
//	picasso -molecule "H6 3D sto3g" -mode aggressive -verify
//	picasso -graph myciel7 -variant equitable -verify
//	picasso -graph roads.mtx -budget 256MiB -refine -verify
//	picasso -random 100000:0.5 -p 0.125 -alpha 2 -gpu 40e9
//	picasso -strings paulis.txt -backend parallel -groups groups.txt
//	picasso -random 200000:0.5 -budget 256MiB -verify   (streamed under a budget)
//	picasso -strings paulis.txt -stream -shard 50000
//	picasso -random 20000:0.5 -budget 16MiB -refine     (stream, then claw colors back)
//	picasso -random 20000:0.5 -budget 64MiB -race-entrants 8   (portfolio race, keep the winner)
//	picasso -molecule "H6 3D sto3g" -refine-target 300  (refine toward a group count)
//
// With -artifact-dir, finished runs are persisted as content-addressed .pic
// artifacts (see docs/artifact-format.md) and prepped slabs are reused
// instead of re-parsing; -prep parses the input, writes a slab-only
// artifact, and exits — the preprocess half of a preprocess/serve split:
//
//	picasso -prep -strings paulis.txt -artifact-dir ./artifacts
//	picasso -strings paulis.txt -artifact-dir ./artifacts   (skips the parse)
//
// The same job description is accepted by the picasso-serve HTTP service
// (cmd/picasso-serve); both front ends share internal/jobspec, and both
// read and write the same artifact store.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"picasso"
	"picasso/internal/artifact"
	"picasso/internal/bucket"
	"picasso/internal/jobspec"
	"picasso/internal/memtrack"
)

func main() {
	var (
		molecule = flag.String("molecule", "", "Table II instance name, e.g. \"H6 3D sto3g\"")
		stringsF = flag.String("strings", "", "file with one Pauli string per line")
		random   = flag.String("random", "", "random dense graph as n:density, e.g. 50000:0.5")
		graphF   = flag.String("graph", "", "general graph: a benchmark name (queen9_9, myciel5, reg4096) or a file (DIMACS .col, Matrix Market .mtx, edge list)")
		variant  = flag.String("variant", "", "coloring variant: equitable | distance2 (empty = standard)")
		mode     = flag.String("mode", "normal", "normal | aggressive | custom")
		pfrac    = flag.Float64("p", 0.125, "palette size as a fraction of |V| (custom mode)")
		alpha    = flag.Float64("alpha", 2, "list-size factor (custom mode)")
		strategy = flag.String("strategy", "dynamic", "conflict coloring: dynamic | natural | largest | random")
		backendF = flag.String("backend", "auto", "conflict construction backend: "+strings.Join(picasso.Backends(), " | "))
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all cores, 1 = sequential)")
		gpu      = flag.Float64("gpu", 0, "simulated device budget in bytes (0 = CPU path)")
		target   = flag.Int("target", 0, "grow molecule instances toward this term count (0 = Table II target)")
		stream   = flag.Bool("stream", false, "color in shards with the partitioned streaming engine")
		shard    = flag.Int("shard", 0, "streaming shard size (0 = derive from -budget; implies -stream)")
		budget   = flag.String("budget", "", "host-memory budget, e.g. 512MiB or 2GB (implies -stream)")
		specul   = flag.Int("speculate", 0, "color this many shards concurrently with cross-shard repair (>=2; implies -stream)")
		raceN    = flag.Int("race-entrants", 0, "race this many entrant configurations (seed/strategy/shard/schedule variants) and keep the fewest-color winner (>=2; implies -stream)")
		deadline = flag.String("deadline", "", "wall-clock limit on the run, e.g. 90s or 5m (empty = none)")
		refine   = flag.Bool("refine", false, "run the palette-refinement pass after coloring (claw back colors)")
		refineR  = flag.Int("refine-rounds", 0, "max refinement rounds (0 = engine default; implies -refine)")
		refineT  = flag.Int("refine-target", 0, "stop refining at this many colors (0 = converge; implies -refine)")
		verify   = flag.Bool("verify", false, "verify the coloring against the input graph")
		groupsF  = flag.String("groups", "", "write unitary groups to this file (Pauli inputs)")
		artDir   = flag.String("artifact-dir", "", "content-addressed .pic store: reuse a prepped slab before parsing, persist the finished run")
		prep     = flag.Bool("prep", false, "parse the input, write a slab-only artifact to -artifact-dir, and exit")
		verbose  = flag.Bool("v", false, "print per-iteration statistics")
	)
	flag.Parse()

	spec := jobspec.Spec{
		Random:    *random,
		Instance:  *molecule,
		Variant:   *variant,
		Target:    *target,
		Mode:      *mode,
		PFrac:     *pfrac,
		Alpha:     *alpha,
		Strategy:  *strategy,
		Backend:   *backendF,
		Seed:      *seed,
		Workers:   *workers,
		Stream:    *stream,
		Shard:     *shard,
		Budget:    *budget,
		Speculate: *specul,
		Deadline:  *deadline,
	}
	if *mode != jobspec.ModeCustom {
		spec.PFrac, spec.Alpha = 0, 0
	}
	if *raceN != 0 {
		// != 0, not >= 2: a bad value must reach Normalize's validation.
		spec.Portfolio = &jobspec.PortfolioSpec{Entrants: *raceN}
	}
	if *refine || *refineR != 0 || *refineT != 0 {
		// != 0, not > 0: a negative value must reach Normalize's validation
		// and fail fast, not silently drop the refinement.
		spec.Refine = &jobspec.RefineSpec{Rounds: *refineR, TargetColors: *refineT}
	}
	if *stringsF != "" {
		spec.Strings = readStrings(*stringsF)
	}
	if *graphF != "" {
		// A readable path is a graph file shipped inline (Normalize collapses
		// it to its content key); anything else is a benchmark-family name.
		if data, err := os.ReadFile(*graphF); err == nil {
			spec.GraphData = string(data)
		} else {
			spec.Graph = *graphF
		}
	}
	if spec.Random == "" && spec.Instance == "" && len(spec.Strings) == 0 &&
		spec.Graph == "" && spec.GraphData == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := spec.Normalize(); err != nil {
		fatal("%v", err)
	}

	var store *artifact.Store
	if *artDir != "" {
		var err error
		if store, err = artifact.NewStore(*artDir); err != nil {
			fatal("%v", err)
		}
	}
	if *prep {
		if store == nil {
			fatal("-prep requires -artifact-dir")
		}
		runPrep(store, spec)
		return
	}

	opts := spec.Options()
	if *gpu > 0 {
		opts.Device = picasso.NewDevice("sim", int64(*gpu), *workers)
	}
	var tr memtrack.Tracker
	opts.Tracker = &tr

	var (
		oracle picasso.Oracle
		set    *picasso.PauliSet
		err    error
	)
	if store != nil {
		// A prep artifact matching this spec hands back the parsed input and
		// skips the parse (and, for molecule instances, the synthesis).
		if art, err := store.Get(spec.Canonical()); err == nil {
			switch {
			case art.Set != nil:
				set = art.Set
				fmt.Printf("artifact %s: loaded prepped slab, parse skipped\n", artifact.Address(art.Spec))
			case art.Graph != nil && spec.GraphCSR() == nil:
				if aerr := spec.AttachGraph(art.Graph); aerr == nil {
					fmt.Printf("artifact %s: loaded prepped graph, parse skipped\n", artifact.Address(art.Spec))
				}
			}
		}
	}
	if set == nil {
		oracle, set, err = spec.BuildInput()
		if err != nil {
			fatal("building input: %v", err)
		}
	}
	if set != nil {
		oracle = picasso.NewPauliOracle(set)
	}
	switch {
	case spec.Instance != "":
		tr.Alloc(set.Bytes())
		fmt.Printf("instance %q: %d strings on %d qubits\n", spec.Instance, set.Len(), set.Qubits())
	case len(spec.Strings) > 0:
		tr.Alloc(set.Bytes())
		fmt.Printf("file %q: %d strings on %d qubits\n", *stringsF, set.Len(), set.Qubits())
	case spec.Graph != "":
		fmt.Printf("graph %q: %d vertices\n", spec.Graph, oracle.NumVertices())
	default:
		fmt.Printf("random graph: %d vertices\n", oracle.NumVertices())
	}
	if spec.Variant != "" {
		fmt.Printf("variant: %s\n", spec.Variant)
	}

	// For streamed runs, keep the last resumable shard-boundary snapshot:
	// it rides along in the persisted artifact so a later process could
	// resume from it (Options.Resume).
	var lastCheckpoint []byte
	if store != nil {
		opts.Checkpoint = func(st picasso.RunState) {
			if !st.Resumable() {
				return
			}
			if blob, err := json.Marshal(st); err == nil {
				lastCheckpoint = blob
			}
		}
	}

	ctx := context.Background()
	if d := spec.DeadlineDuration(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// One call runs the whole schedule — race, stream or one-shot, then the
	// refinement pass — under the deadline.
	t0 := time.Now()
	res, err := picasso.Run(ctx, oracle, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatal("coloring failed: deadline %s exceeded", spec.Deadline)
		}
		fatal("coloring failed: %v", err)
	}
	elapsed := time.Since(t0)

	n := len(res.Colors)
	rst := res.Refine
	colors := res.NumColors // before refinement; "refined:" below reports after
	if rst != nil {
		colors = rst.ColorsBefore
	}
	fmt.Printf("colors: %d (%.2f%% of |V|)\n", colors, 100*float64(colors)/float64(n))
	fmt.Printf("iterations: %d, max conflict edges: %d, total conflict edges: %d\n",
		len(res.Iters), res.MaxConflictEdges, res.TotalConflictEdges)
	fmt.Printf("conflict pairs tested: %d of %d all-pairs (bucketed kernel)\n",
		res.TotalPairsTested, allPairsWork(res.Iters))
	fmt.Printf("time: total %v (assign %v, conflict graph %v, conflict coloring %v)\n",
		elapsed.Round(time.Millisecond), res.AssignTime.Round(time.Millisecond),
		res.BuildTime.Round(time.Millisecond), res.ColorTime.Round(time.Millisecond))
	fmt.Printf("host peak memory (tracked): %.2f MB\n", float64(res.HostPeakBytes)/1e6)
	if res.Shards > 0 {
		fmt.Printf("streamed: %d shards, %d cross-frontier pair tests\n", res.Shards, res.FixedPairsTested)
		if spec.Speculate >= 2 {
			fmt.Printf("speculated: %d lanes, %d cross-shard conflicts repaired (%d recolored in palette, %.0f%% of lane time hidden)\n",
				spec.Speculate, res.SpeculativeConflicts, res.RepairRecolors, 100*res.OverlapRatio)
		}
	}
	if b := spec.BudgetBytes(); b > 0 {
		verdict := "respected"
		if res.BudgetExceeded {
			verdict = "EXCEEDED"
		}
		fmt.Printf("memory budget %s: %s (peak %.2f MB)\n",
			jobspec.FormatBytes(b), verdict, float64(res.HostPeakBytes)/1e6)
	}
	if res.Fallback {
		fmt.Println("note: iteration cap hit; remainder finished with singleton colors")
	}
	if *verbose {
		for _, it := range res.Iters {
			fmt.Printf("  iter %2d: active %7d  P %6d  L %3d  |Vc| %7d  |Ec| %9d  pairs %10d  failed %6d\n",
				it.Iteration, it.ActiveVertices, it.Palette, it.ListSize,
				it.ConflictVertices, it.ConflictEdges, it.PairsTested, it.Failed)
		}
	}

	if race := res.Portfolio; race != nil {
		fmt.Printf("portfolio: %d entrants, winner %d with %d colors, %d cancelled early, time-to-best %v\n",
			len(race.Entrants), race.Winner, colors, race.CancelledEntrants, race.TimeToBest.Round(time.Millisecond))
		for _, e := range race.Entrants {
			outcome := fmt.Sprintf("%d colors in %d shards", e.Colors, e.Shards)
			if e.Cancelled {
				outcome = fmt.Sprintf("cancelled at shard %d", e.CancelledAtShard)
			}
			fmt.Printf("  entrant %2d [%s]: %s (%v, peak %.2f MB)\n",
				e.Index, e.Name, outcome, e.Wall.Round(time.Millisecond), float64(e.PeakBytes)/1e6)
		}
	}

	// The palette-refinement pass clawed colors back from the finished
	// coloring: verification and group output below run on the refined
	// result.
	if rst != nil {
		fmt.Printf("refined: %d -> %d colors (-%.1f%%) in %d rounds, %d/%d moved vertices recolored (%v, peak %.2f MB)\n",
			rst.ColorsBefore, rst.ColorsAfter,
			100*float64(rst.ClassesEliminated)/float64(max(rst.ColorsBefore, 1)),
			rst.Rounds, rst.Moved-rst.Stuck, rst.Moved,
			rst.TotalTime.Round(time.Millisecond), float64(rst.HostPeakBytes)/1e6)
		if *verbose {
			for _, r := range rst.RoundStats {
				fmt.Printf("  round %2d: ceiling %6d  classes %5d  moved %6d  recolored %6d  stuck %6d  -> %6d colors\n",
					r.Round, r.Ceiling, r.Classes, r.Moved, r.Recolored, r.Stuck, r.ColorsAfter)
			}
		}
	}

	if *verify {
		var err error
		if set != nil {
			err = picasso.VerifyGrouping(set, res.Colors)
		} else {
			err = picasso.Verify(oracle, res.Colors)
		}
		if err != nil {
			fatal("VERIFICATION FAILED: %v", err)
		}
		fmt.Println("verification: OK (proper coloring; clique partition for Pauli inputs)")
	}

	if *groupsF != "" && set != nil {
		writeGroups(*groupsF, set, res.Colors)
		fmt.Printf("groups written to %s\n", *groupsF)
	}

	if store != nil {
		persistRun(store, spec, set, res.Colors, lastCheckpoint)
	}
}

// runPrep is the preprocess half of the preprocess/serve split: parse the
// input once, persist it as a content-addressed artifact — the packed slab
// for Pauli inputs, the base CSR for graph inputs — and exit. A later run
// (or a picasso-serve replica) pointed at the same store loads the parsed
// input instead of re-parsing.
func runPrep(store *artifact.Store, spec jobspec.Spec) {
	_, set, err := spec.BuildInput()
	if err != nil {
		fatal("building input: %v", err)
	}
	if set == nil {
		g := spec.GraphCSR()
		if g == nil {
			fatal("-prep needs a parseable input (-molecule, -strings, or -graph); -random graphs have nothing to parse")
		}
		canonical := spec.Canonical()
		path, err := store.Put(&artifact.Artifact{Spec: canonical, Graph: g})
		if err != nil {
			fatal("writing artifact: %v", err)
		}
		fmt.Printf("prep artifact %s: graph with %d vertices, %d edges -> %s\n",
			artifact.Address(canonical), g.N, len(g.Adj)/2, path)
		return
	}
	canonical := spec.Canonical()
	path, err := store.Put(&artifact.Artifact{Spec: canonical, Set: set})
	if err != nil {
		fatal("writing artifact: %v", err)
	}
	fmt.Printf("prep artifact %s: %d strings on %d qubits -> %s\n",
		artifact.Address(canonical), set.Len(), set.Qubits(), path)
}

// persistRun writes the finished run to the artifact store: spec, slab (for
// Pauli inputs), coloring, its inverted index, and the last resumable
// streaming checkpoint, if any. Best-effort — a write failure is reported
// but never fails a run whose results were already printed.
func persistRun(store *artifact.Store, spec jobspec.Spec, set *picasso.PauliSet, colors picasso.Coloring, checkpoint []byte) {
	ix, err := bucket.BuildIndex(colors)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picasso: artifact not written: %v\n", err)
		return
	}
	art := &artifact.Artifact{
		Spec:     spec.Canonical(),
		Set:      set,
		Graph:    spec.GraphCSR(),
		Index:    ix,
		Colors:   colors,
		RunState: checkpoint,
	}
	path, err := store.Put(art)
	if err != nil {
		fmt.Fprintf(os.Stderr, "picasso: artifact not written: %v\n", err)
		return
	}
	fmt.Printf("artifact written to %s\n", path)
}

func readStrings(path string) []string {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	lines, err := jobspec.ReadPauliLines(f)
	if err != nil {
		fatal("%s: %v", path, err)
	}
	return lines
}

func writeGroups(path string, set *picasso.PauliSet, c picasso.Coloring) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	for gi, group := range picasso.Groups(set, c) {
		fmt.Fprintf(w, "# group %d (%d strings)\n", gi, len(group))
		for _, idx := range group {
			fmt.Fprintln(w, set.At(idx).String())
		}
	}
}

// allPairsWork sums the m(m−1)/2 pair tests a dense conflict scan would
// have spent across the run's iterations — the denominator of the bucketed
// kernel's savings.
func allPairsWork(iters []picasso.IterStats) int64 {
	var total int64
	for _, it := range iters {
		m := int64(it.ActiveVertices)
		total += m * (m - 1) / 2
	}
	return total
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "picasso: "+format+"\n", args...)
	os.Exit(1)
}
