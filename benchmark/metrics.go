package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists the same
// names and units (TestDeclarationsMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run (-trace 0) reports on every
// workload: what a caller of the engine or the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},                 // median of repeated set-ups
	{"vertices_per_s", "vertices/s"}, // input vertices colored per second of job time
	{"jobs_per_s", "jobs/s"},         // jobs finished per second
	{"job_s_p50", "s"},               // median job latency
	{"colors", "count"},              // Σ colors over the workload's fixed job set
	{"tracked_peak_bytes", "bytes"},  // memtrack peak (Table IV quantity), max over the fixed job set
	{"rss_peak_bytes", "bytes"},      // process maximum resident set size
}

// perLayer are the metrics a traced run (-trace 1) reports on every
// workload; a layer the workload never enters reads 0. Times are totals over
// the traced pass.
var perLayer = []metricDef{
	{"backend.build_s", "s"},
	{"backend.builds", "count"},
	{"backend.pairs_tested", "count"},
	{"backend.edge_yield", "ratio"},
	{"backend.bytes_computed", "bytes"},
	{"backend.parallel_speedup", "ratio"},
	{"core.assign_s", "s"},
	{"core.build_s", "s"},
	{"core.color_s", "s"},
	{"core.iterations", "count"},
	{"core.carryover_frac", "ratio"},
	{"core.conflict_edges", "count"},
	{"core.fixed_pass_s", "s"},
	{"core.fixed_pairs_tested", "count"},
	{"core.shards", "count"},
	{"core.refine_s", "s"},
	{"core.refine_rounds", "count"},
	{"core.refine_pairs_tested", "count"},
	{"memtrack.budget_exceeded", "count"},
	{"jobspec.normalize_s", "s"},
	{"jobspec.build_input_s", "s"},
	{"pauli.parse_s", "s"},
	{"graph.parse_s", "s"},
	{"server.admit_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.run_s", "s"},
	{"server.persist_s", "s"},
	{"server.done_lag_s", "s"},
	{"server.groups_s", "s"},
	{"server.cache_hits", "count"},
	{"server.disk_hits", "count"},
	{"server.rejected", "count"},
	{"artifact.load_s", "s"},
	{"artifact.bytes", "bytes"},
	{"journal.replay_s", "s"},
	{"journal.records", "count"},
	{"loadgen.lag_s_max", "s"},
	{"trace.overhead_s", "s"},
	{"trace.attributed_frac", "ratio"},
}

// extra is a figure printed in the human-readable table only: a number that
// does not apply to every workload (so it cannot be a contract metric), or
// a sample count qualifying one that does.
type extra struct {
	name, unit string
	value      float64
	ok         bool   // false prints note instead of the value
	note       string // why the figure is absent
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // contract metrics, by name
	extras            []extra
	selfTimes         []selfRow // traced runs only
	spans             *recorder // traced runs only
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}}
}

// fail counts one failed operation and records why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(stderr, "FAIL: "+format+"\n", args...)
}

// stderr is where failures are reported; tests swap it out.
var stderr io.Writer = io.Discard

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailExtra reports the p90 of latencies when at least ten samples lie
// beyond it, and says why not otherwise.
func tailExtra(name string, xs []float64) extra {
	beyond := len(xs) - int(math.Ceil(0.9*float64(len(xs))))
	if beyond < 10 {
		return extra{name: name, unit: "s", note: fmt.Sprintf("n/a: %d samples, %d beyond p90 (need 10)", len(xs), beyond)}
	}
	return extra{name: name, unit: "s", value: quantile(xs, 0.9), ok: true}
}

func count(name string, n int) extra {
	return extra{name: name, unit: "count", value: float64(n), ok: true}
}
