// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VII) plus the experiments package's ablations. Each benchmark runs the
// corresponding experiment driver end to end and reports domain metrics
// (colors, conflict edges, memory, speedups) via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the full evaluation at CI scale.
// Use cmd/experiments -full for paper-scale instances and rendered tables.
package picasso_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"picasso"
	"picasso/internal/coloring"
	"picasso/internal/experiments"
	"picasso/internal/workload"
)

// benchConfig keeps per-iteration work bounded while exercising the full
// pipelines.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Build.MaxTerms = 1500
	cfg.Seeds = []int64{1, 2}
	cfg.MaxInstances = 2
	return cfg
}

// BenchmarkTable2Dataset regenerates the dataset table (paper Table II):
// instance construction plus parallel complement-edge counting.
func BenchmarkTable2Dataset(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg, []workload.Class{workload.Small})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable2(io.Discard, rows)
			b.ReportMetric(float64(rows[0].Terms), "terms")
			b.ReportMetric(float64(rows[0].Edges), "edges")
		}
	}
}

// BenchmarkTable3Quality regenerates the color-quality comparison (paper
// Table III): ColPack orderings vs Picasso Norm/Aggr vs the parallel
// baselines.
func BenchmarkTable3Quality(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			b.ReportMetric(r.ColPack[coloring.DLF], "DLF-colors")
			b.ReportMetric(r.Norm, "norm-colors")
			b.ReportMetric(r.Aggr, "aggr-colors")
		}
	}
}

// BenchmarkTable4Memory regenerates the peak-memory comparison (paper
// Table IV) under the memtrack accounting model, exact for what it charges
// (ARCHITECTURE.md lists what it does not).
func BenchmarkTable4Memory(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[0]
			b.ReportMetric(float64(r.ColPack)/float64(r.Norm), "colpack/norm-mem")
			b.ReportMetric(float64(r.Kokkos)/float64(r.ECL), "kokkos/ecl-mem")
		}
	}
}

// BenchmarkTable5Speedup regenerates the CPU-only vs GPU-assisted runtime
// comparison (paper Table V).
func BenchmarkTable5Speedup(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].BuildSpeedup, "build-speedup")
			b.ReportMetric(rows[len(rows)-1].TotalSpeedup, "total-speedup")
		}
	}
}

// BenchmarkFig2Scaling regenerates the conflict-edge scaling study with the
// device-budget ceiling (paper Fig. 2).
func BenchmarkFig2Scaling(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInstances = 3
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(cfg, []workload.Class{workload.Small})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].MaxConfPct, "max-conf-%")
			b.ReportMetric(rows[len(rows)-1].CeilingPct, "ceiling-%")
		}
	}
}

// BenchmarkFig3Breakdown regenerates the runtime component breakdown
// (paper Fig. 3).
func BenchmarkFig3Breakdown(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(cfg, []workload.Class{workload.Small})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := rows[len(rows)-1]
			b.ReportMetric(float64(r.Build)/float64(r.Total), "build-frac")
		}
	}
}

// BenchmarkFig4Relative regenerates the P-sweep comparison against
// ECL-GC-R (paper Fig. 4).
func BenchmarkFig4Relative(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInstances = 1
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				if p.PFrac == 0.01 {
					b.ReportMetric(p.RelColors, "relColors-P1%")
					b.ReportMetric(p.RelMemory, "relMem-P1%")
				}
			}
		}
	}
}

// BenchmarkFig5Heatmap regenerates the P×α parameter-sensitivity heatmap
// (paper Fig. 5).
func BenchmarkFig5Heatmap(b *testing.B) {
	cfg := benchConfig()
	pfracs, alphas := experiments.DefaultFig5Axes(true)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg, "H6 3D sto3g", pfracs, alphas)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Cells)), "cells")
		}
	}
}

// BenchmarkMLPredictor regenerates the §VI study: grid sweep, forest
// training, held-out evaluation.
func BenchmarkMLPredictor(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInstances = 5
	cfg.Build.MaxTerms = 400
	for i := 0; i < b.N; i++ {
		res, err := experiments.ML(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MAPE, "MAPE")
			b.ReportMetric(res.R2, "R2")
		}
	}
}

// BenchmarkAblationListColoring compares Algorithm 2 against the static
// list-coloring orders (§IV-B design choice).
func BenchmarkAblationListColoring(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationListColoring(cfg, "H6 3D sto3g")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Colors, "dynamic-colors")
			b.ReportMetric(rows[1].Colors, "natural-colors")
		}
	}
}

// BenchmarkAblationEncoding measures the 3-bit encoded anticommutation test
// against the naive character comparison (§IV-A's 1.4–2.0× claim).
func BenchmarkAblationEncoding(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEncoding(cfg, "H6 3D sto3g")
		if err != nil {
			b.Fatal(err)
		}
		if res.Disagreement != 0 {
			b.Fatal("encoded and naive tests disagree")
		}
		if i == 0 {
			b.ReportMetric(res.Speedup, "encoded-speedup")
		}
	}
}

// BenchmarkAblationIterative compares the iterative algorithm with the
// single-pass ACK-style variant (§III modification iii).
func BenchmarkAblationIterative(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationIterative(cfg, "H6 3D sto3g")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.IterativeColors, "iterative-colors")
			b.ReportMetric(res.SinglePassColors, "singlepass-colors")
		}
	}
}

// BenchmarkConflictBuildBackends drives the three conflict-construction
// backends through the public API on a dense n=10k oracle, reporting the
// build-phase time and the kernel's oracle-call savings. The kernel-level
// all-pairs vs bucketed comparison lives in internal/backend
// (BenchmarkConflictBuild); this one confirms the win survives end to end.
func BenchmarkConflictBuildBackends(b *testing.B) {
	o := picasso.RandomGraph(10000, 0.5, 42)
	for _, be := range []string{"sequential", "parallel", "gpu"} {
		b.Run(be, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := picasso.Normal(1)
				opts.Backend = be
				if be == "gpu" {
					opts.Device = picasso.NewDevice("bench", 1<<33, 0)
				}
				res, err := picasso.Run(context.Background(), o, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var allPairs int64
					for _, it := range res.Iters {
						m := int64(it.ActiveVertices)
						allPairs += m * (m - 1) / 2
					}
					b.ReportMetric(float64(res.BuildTime.Milliseconds()), "build-ms")
					b.ReportMetric(float64(res.TotalPairsTested), "pairs-tested")
					b.ReportMetric(float64(allPairs)/float64(res.TotalPairsTested), "allpairs-reduction")
				}
			}
		})
	}
}

// BenchmarkColorThroughput measures raw Picasso throughput on a dense
// random graph (vertices per second via implicit-edge coloring).
func BenchmarkColorThroughput(b *testing.B) {
	o := picasso.RandomGraph(2000, 0.5, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := picasso.Run(context.Background(), o, picasso.Normal(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateRecolor measures the zero-allocation steady state a
// service worker lives in: the same dense instance recolored over and over
// on one warm Arena, against the fresh-buffers baseline. Run with -benchmem:
// the arena variant's allocs/op is the PR's headline — a fixed few dozen
// objects per full run (Result bookkeeping only) versus tens of thousands,
// and correspondingly ~zero B/op of garbage.
func BenchmarkSteadyStateRecolor(b *testing.B) {
	o := picasso.RandomGraph(4000, 0.5, 9)
	run := func(b *testing.B, opts picasso.Options) {
		res, err := picasso.Run(context.Background(), o, opts) // warm-up (grows the arena, if any)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Iters)), "iterations")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := picasso.Run(context.Background(), o, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		opts := picasso.Normal(1)
		opts.Workers = 1
		run(b, opts)
	})
	b.Run("arena", func(b *testing.B) {
		opts := picasso.Normal(1)
		opts.Workers = 1
		opts.Arena = picasso.NewArena()
		run(b, opts)
	})
}

// BenchmarkPauliGrouping measures the end-to-end quantum workflow:
// molecule build, coloring, grouping.
func BenchmarkPauliGrouping(b *testing.B) {
	set, err := picasso.BuildMolecule("H4 1D sto3g", 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := picasso.Run(context.Background(), picasso.NewPauliOracle(set), picasso.Normal(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.NumColors), "groups")
		}
	}
}

// BenchmarkStreamShardSweep sweeps the streaming shard size on a fixed
// instance and reports, per shard size, the tracked host peak alongside
// wall time — the memory/time trade-off curve the streaming engine exists
// for (CI publishes it as BENCH_stream.json). The one-shot engine runs as
// the shard=0 baseline.
func BenchmarkStreamShardSweep(b *testing.B) {
	const n = 20000
	o := picasso.RandomGraph(n, 0.5, 11)
	run := func(b *testing.B, shard int) {
		arena := picasso.NewArena()
		for i := 0; i < b.N; i++ {
			var tr picasso.MemoryTracker
			opts := picasso.Normal(3)
			opts.Tracker = &tr
			opts.Arena = arena
			var res *picasso.Result
			var err error
			if shard == 0 {
				res, err = picasso.Run(context.Background(), o, opts)
			} else {
				opts.ShardSize = shard
				res, err = picasso.Stream(context.Background(), o, opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(tr.Peak()), "peak-B")
				b.ReportMetric(float64(res.NumColors), "colors")
				b.ReportMetric(float64(res.Shards), "shards")
				b.ReportMetric(float64(res.FixedPairsTested), "fixed-pairs")
			}
		}
	}
	b.Run("shard=0", func(b *testing.B) { run(b, 0) })
	for _, shard := range []int{2500, 5000, 10000} {
		b.Run(fmt.Sprintf("shard=%d", shard), func(b *testing.B) { run(b, shard) })
	}
}

// BenchmarkRefine measures the palette-refinement claw-back on the
// streamed n=20k d=0.5 Normal instance under a fixed budget: colors before
// and after refinement, rounds spent, and the refinement pass's tracked
// peak — the quality/memory curve of the quantum measurement-group saving
// (CI publishes it as BENCH_refine.json).
func BenchmarkRefine(b *testing.B) {
	const n = 20000
	o := picasso.RandomGraph(n, 0.5, 11)
	arena := picasso.NewArena()
	for i := 0; i < b.N; i++ {
		var tr picasso.MemoryTracker
		opts := picasso.Normal(3)
		opts.Tracker = &tr
		opts.Arena = arena
		opts.MemoryBudgetBytes = 16 << 20
		opts.Stream = true
		opts.Refine = &picasso.RefineOptions{}
		res, err := picasso.Run(context.Background(), o, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			st := res.Refine
			if err := picasso.Verify(o, res.Colors); err != nil {
				b.Fatalf("refined coloring not proper: %v", err)
			}
			b.ReportMetric(float64(st.ColorsBefore), "colors-before")
			b.ReportMetric(float64(st.ColorsAfter), "colors-after")
			b.ReportMetric(float64(st.Rounds), "rounds")
			b.ReportMetric(float64(st.HostPeakBytes), "peak-B")
			b.ReportMetric(float64(st.TotalTime.Milliseconds()), "refine-ms")
		}
	}
}

// BenchmarkStreamPipelined compares the sequential and speculative shard
// schedules on the streaming engine's n=20k d=0.5 shard sweep: wall time,
// tracked host peak (S footprints in flight under speculation), and the
// overlap the schedule achieved (CI publishes it as BENCH_pipeline.json).
// The coloring is asserted proper on the first iteration of every variant.
func BenchmarkStreamPipelined(b *testing.B) {
	const n = 20000
	o := picasso.RandomGraph(n, 0.5, 11)
	run := func(b *testing.B, shard int, cfg func(*picasso.Options)) {
		for i := 0; i < b.N; i++ {
			var tr picasso.MemoryTracker
			opts := picasso.Normal(3)
			opts.Tracker = &tr
			opts.ShardSize = shard
			opts.MemoryBudgetBytes = 64 << 20
			cfg(&opts)
			res, err := picasso.Stream(context.Background(), o, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				if err := picasso.Verify(o, res.Colors); err != nil {
					b.Fatalf("coloring not proper: %v", err)
				}
				b.ReportMetric(float64(tr.Peak()), "peak-B")
				b.ReportMetric(float64(res.NumColors), "colors")
				b.ReportMetric(res.OverlapRatio, "overlap")
				b.ReportMetric(float64(res.SpeculativeConflicts), "spec-conflicts")
			}
		}
	}
	variants := []struct {
		name string
		cfg  func(*picasso.Options)
	}{
		{"seq", func(*picasso.Options) {}},
		{"spec", func(o *picasso.Options) { o.Speculate = 3 }},
	}
	for _, shard := range []int{2500, 5000, 10000} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/shard=%d", v.name, shard), func(b *testing.B) { run(b, shard, v.cfg) })
		}
	}
}

// BenchmarkPortfolio races 1 vs 4 vs 8 entrants on the same instance under
// one shared memory budget and reports the color count the race settles on
// plus the wall time until the winning coloring existed. The 1-entrant
// row is the plain streamed run — the baseline every wider portfolio must
// beat. Refinement is disabled so rows compare raw racing quality.
func BenchmarkPortfolio(b *testing.B) {
	const n = 10000
	o := picasso.RandomGraph(n, 0.5, 11)
	base := func() picasso.Options {
		opts := picasso.Normal(3)
		opts.MemoryBudgetBytes = 64 << 20
		return opts
	}

	b.Run("entrants=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tr picasso.MemoryTracker
			opts := base()
			opts.Tracker = &tr
			res, err := picasso.Stream(context.Background(), o, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				if err := picasso.Verify(o, res.Colors); err != nil {
					b.Fatalf("coloring not proper: %v", err)
				}
				b.ReportMetric(float64(res.NumColors), "colors")
				b.ReportMetric(float64(tr.Peak()), "peak-B")
			}
		}
	})
	for _, entrants := range []int{4, 8} {
		b.Run(fmt.Sprintf("entrants=%d", entrants), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tr picasso.MemoryTracker
				opts := base()
				opts.Tracker = &tr
				opts.Stream = true
				opts.Portfolio = &picasso.PortfolioOptions{Entrants: entrants}
				res, err := picasso.Run(context.Background(), o, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if err := picasso.Verify(o, res.Colors); err != nil {
						b.Fatalf("coloring not proper: %v", err)
					}
					b.ReportMetric(float64(res.NumColors), "colors")
					b.ReportMetric(float64(res.Portfolio.TimeToBest.Milliseconds()), "time-to-best-ms")
					b.ReportMetric(float64(res.Portfolio.CancelledEntrants), "cancelled")
					b.ReportMetric(float64(tr.Peak()), "peak-B")
				}
			}
		})
	}
}
