// Command benchmark is the repository's benchmark: it runs one named
// workload against the picasso engine or its coloring service, verifies
// every output, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics, prints a self-time table per
// layer and writes its spans as JSON under -workdir. See README.md.
//
// Usage:
//
//	go run . -workload pauli-table2|dense-stream-refine|serve-mix|all -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// workloads names the benchmark's workloads in run order.
var workloads = []string{"pauli-table2", "dense-stream-refine", "serve-mix"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test scale: small inputs, same code paths
	workDir  string // scratch space for artifacts and trace files
}

func (c config) runLength() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	stderr = os.Stderr
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses the arguments, runs each requested workload and returns the
// exit code: 0 only when every output verified.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "pauli-table2 | dense-stream-refine | serve-mix | all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long a run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	tiny := fs.Bool("tiny", false, "self-test scale inputs")
	workDir := fs.String("workdir", ".bench_build", "scratch directory for artifacts and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*workload) && *workload != "all" {
		fmt.Fprintf(stderr, "unknown workload %q (want one of %v or all)\n", *workload, workloads)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "-seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runEach(args, stdout)
	}
	runtime.GOMAXPROCS(2)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, workDir: *workDir}
	if !report(stdout, cfg, runWorkload(context.Background(), cfg)) {
		return 1
	}
	return 0
}

// runEach runs every workload in a process of its own, so that none inherits
// another's peak RSS or heap, and returns 1 if any of them failed.
func runEach(args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "locating the benchmark binary: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloads {
		// A repeated flag takes its last value.
		cmd := exec.Command(exe, append(slices.Clone(args), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

func runWorkload(ctx context.Context, cfg config) *outcome {
	switch cfg.workload {
	case "pauli-table2":
		return runBatch(ctx, cfg, newPauliTable2(cfg))
	case "dense-stream-refine":
		return runBatch(ctx, cfg, newDenseStreamRefine(cfg))
	default:
		return runServe(ctx, cfg, newServeMix(cfg))
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the environment record, the metric tables and the result
// line, and reports whether the run was correct.
func report(w io.Writer, cfg config, o *outcome) bool {
	env := environment(cfg)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		o.metrics["rss_peak_bytes"] = rssPeakBytes()
	}
	envJSON, _ := json.Marshal(env) // a struct of strings and numbers always encodes
	fmt.Fprintf(w, "env %s\n", envJSON)

	res := result{Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "%s metrics (seed %d, %s)\n", cfg.workload, cfg.seed, map[bool]string{false: "untraced", true: "traced"}[cfg.trace])
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !cfg.trace && o.failed == 0 {
			o.fail("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-26s %18.6f %s\n", d.name, v, d.unit)
	}
	for _, e := range o.extras {
		if e.ok {
			fmt.Fprintf(w, "  %-26s %18.6f %s\n", e.name, e.value, e.unit)
		} else {
			fmt.Fprintf(w, "  %-26s %18s %s (%s)\n", e.name, "-", e.unit, e.note)
		}
	}
	o.attempted = max(o.attempted, o.failed, 1) // a failed set-up attempted nothing else
	fmt.Fprintf(w, "  %-26s %18.6f ratio (%d of %d operations)\n", "failed_frac", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)

	if cfg.trace && o.spans != nil {
		printSelfTimes(w, cfg.workload, o.selfTimes, o.spans.total(wallSpan(cfg.workload), ""))
		if path, err := writeTrace(filepath.Join(cfg.workDir, "trace"), cfg.workload, cfg.seed, env, o); err != nil {
			fmt.Fprintf(stderr, "writing trace: %v\n", err)
		} else {
			fmt.Fprintf(w, "spans written to %s\n", path)
		}
	}
	res.Correct = o.failed == 0
	res.Attempted, res.Failed = o.attempted, o.failed
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "encoding result: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

// wallSpan names the spans whose durations make up a workload's traced
// wall: the traced pass for batch workloads, the requests for the service.
func wallSpan(workload string) string {
	if workload == "serve-mix" {
		return "request"
	}
	return "run"
}
