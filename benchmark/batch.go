package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"picasso"
)

// jobRecord is what one batch job produced.
type jobRecord struct {
	in       input // the job's input, for verification
	coloring picasso.Coloring
	colors   int
	wall     time.Duration
	peak     int64 // memtrack peak over the job's engine calls
	exceed   int64 // budget crossings the governor recorded
	res      *picasso.Result
	rst      *picasso.RefineStats // nil unless the job refines
}

// batchWorkload is a workload that calls the engine directly, one job at a
// time, over a fixed job set whose indices the timed loop cycles through.
type batchWorkload interface {
	// setup builds the shared inputs. runBatch times it and repeats it;
	// spans, when rec is non-nil, nest under parent.
	setup(rec *recorder, parent int) error
	// fixedJobs is the size of the fixed job set.
	fixedJobs() int
	// job runs job i of the fixed set. A non-nil tb is injected as the
	// conflict builder (with tb.workers as the worker count); rec records
	// spans under parent.
	job(ctx context.Context, i int, tb *timedBuilder, rec *recorder, parent int) (*jobRecord, error)
}

// A run times its set-up in samples until it has minSetupSamples of them
// and has spent minSetupTime (at most maxSetupSamples); setup_s is the
// median sample. A sample repeats the set-up until it has lasted
// minSampleTime and reports the mean per call, so a set-up of microseconds
// is timed over many calls.
const (
	minSetupSamples = 5
	maxSetupSamples = 15
	minSetupTime    = time.Second
	minSampleTime   = 10 * time.Millisecond
)

func runBatch(ctx context.Context, cfg config, w batchWorkload) *outcome {
	o := newOutcome()
	var setups []float64
	var spent time.Duration
	for len(setups) < maxSetupSamples && (len(setups) < minSetupSamples || spent < minSetupTime) {
		runtime.GC()
		t0 := time.Now()
		calls := 0
		for calls == 0 || time.Since(t0) < minSampleTime {
			if err := w.setup(nil, -1); err != nil {
				o.fail("setup: %v", err)
				return o
			}
			calls++
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds()/float64(calls))
	}
	o.metrics["setup_s"] = median(setups)
	if cfg.trace {
		runBatchTraced(ctx, w, o)
	} else {
		runBatchTimed(ctx, cfg, w, o)
	}
	return o
}

// runBatchTimed is the untraced run: jobs cycle through the fixed set until
// the job time reaches the run length, ending on a whole cycle so every job
// of the set weighs equally.
// Each job's first run is verified outside its timing; every repeat must
// reproduce that coloring exactly. Each job starts from a collected heap,
// so none pays for another's garbage.
func runBatchTimed(ctx context.Context, cfg config, w batchWorkload, o *outcome) {
	k := w.fixedJobs()
	first := make([]picasso.Coloring, k)
	var walls []float64
	var busy time.Duration
	vertices, colors := 0, 0
	var peak int64
	for i := 0; i%k != 0 || i == 0 || busy < cfg.runLength(); i++ {
		o.attempted++
		runtime.GC()
		j, err := w.job(ctx, i%k, nil, nil, -1)
		if err != nil {
			o.fail("job %d: %v", i, err)
			return
		}
		busy += j.wall
		walls = append(walls, j.wall.Seconds())
		vertices += j.in.vertices()
		if i < k {
			if err := verifyJob(j); err != nil {
				o.fail("job %d: %v", i, err)
			}
			first[i] = j.coloring
			colors += j.colors
			peak = max(peak, j.peak)
		} else if !slices.Equal(j.coloring, first[i%k]) {
			o.fail("job %d: coloring differs from the same job's first run", i)
		}
	}
	o.metrics["vertices_per_s"] = float64(vertices) / busy.Seconds()
	o.metrics["jobs_per_s"] = float64(len(walls)) / busy.Seconds()
	o.metrics["job_s_p50"] = median(walls)
	o.metrics["colors"] = float64(colors)
	o.metrics["tracked_peak_bytes"] = float64(peak)
	o.extras = append(o.extras, count("job_samples", len(walls)), tailExtra("job_s_p90", walls))
}

// verifyJob checks a batch job's coloring: a proper coloring (a valid
// grouping for Pauli inputs) whose classes cover every vertex exactly once.
func verifyJob(j *jobRecord) error {
	if err := verifyInput(j.in, j.coloring); err != nil {
		return err
	}
	return coverCheck(picasso.ColorGroups(j.coloring), j.in.vertices())
}

// coverCheck asserts that groups partition [0, n).
func coverCheck(groups [][]int, n int) error {
	seen := make([]bool, n)
	total := 0
	for _, g := range groups {
		for _, v := range g {
			if v < 0 || v >= n || seen[v] {
				return fmt.Errorf("groups cover vertex %d twice or out of range", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("groups cover %d of %d vertices", total, n)
	}
	return nil
}

// runBatchTraced is the traced run: the fixed set once untraced, once
// traced (same jobs, builder wrapped, spans recorded), then job 0 traced
// again with a one-worker builder for the parallel speed-up. The traced
// colorings must equal the untraced ones.
func runBatchTraced(ctx context.Context, w batchWorkload, o *outcome) {
	k := w.fixedJobs()
	untraced := make([]*jobRecord, k)
	t0 := time.Now()
	for i := 0; i < k; i++ {
		o.attempted++
		runtime.GC()
		j, err := w.job(ctx, i, nil, nil, -1)
		if err != nil {
			o.fail("untraced job %d: %v", i, err)
			return
		}
		if err := verifyJob(j); err != nil {
			o.fail("untraced job %d: %v", i, err)
		}
		untraced[i] = j
	}
	untracedWall := time.Since(t0)

	rec := newRecorder()
	o.spans = rec
	setupSpan := rec.begin("setup", -1, "")
	if err := w.setup(rec, setupSpan); err != nil {
		o.fail("traced setup: %v", err)
		return
	}
	rec.end(setupSpan)

	tb, err := newTimedBuilder(rec, 0)
	if err != nil {
		o.fail("%v", err)
		return
	}
	traced := make([]*jobRecord, k)
	root := rec.begin("run", -1, "")
	for i := 0; i < k; i++ {
		o.attempted++
		id := strconv.Itoa(i)
		runtime.GC()
		js := rec.begin("job", root, id)
		j, err := w.job(ctx, i, tb, rec, js)
		rec.end(js)
		if err != nil {
			o.fail("traced job %d: %v", i, err)
			return
		}
		vs := rec.begin("verify", root, id)
		if err := verifyJob(j); err != nil {
			o.fail("traced job %d: %v", i, err)
		}
		rec.end(vs)
		if !slices.Equal(j.coloring, untraced[i].coloring) {
			o.fail("job %d: traced coloring differs from the untraced one", i)
		}
		traced[i] = j
	}
	rec.end(root)
	tracedWall := rec.total("run", "")

	// Job 0 once more with a sequential builder, recorded apart so the
	// traced pass's totals stay those of the fixed set.
	seqRec := newRecorder()
	seq, err := newTimedBuilder(seqRec, 1)
	if err != nil {
		o.fail("%v", err)
		return
	}
	o.attempted++
	j0, err := w.job(ctx, 0, seq, seqRec, -1)
	if err != nil {
		o.fail("one-worker job 0: %v", err)
		return
	}
	// Checked for properness only: under a memory budget the tracked
	// footprint, and with it the governor's shard sizes, depends on the
	// conflict builder's worker count.
	if err := verifyJob(j0); err != nil {
		o.fail("one-worker job 0: %v", err)
	}

	m := o.metrics
	m["backend.build_s"] = tb.busy.Seconds()
	m["backend.builds"] = float64(tb.builds)
	m["backend.pairs_tested"] = float64(tb.pairs)
	m["backend.edge_yield"] = ratio(float64(tb.edges), float64(tb.pairs))
	m["backend.bytes_computed"] = float64(tb.bytes)
	m["backend.parallel_speedup"] = ratio(seq.busy.Seconds(), rec.total("backend.build", "0").Seconds())
	var assign, build, color time.Duration
	var iters, failed, active, shards, rounds int
	var edges, fixedPairs, refinePairs, exceed int64
	for _, j := range traced {
		assign += j.res.AssignTime
		build += j.res.BuildTime
		color += j.res.ColorTime
		iters += len(j.res.Iters)
		for _, it := range j.res.Iters {
			failed += it.Failed
			active += it.ActiveVertices
		}
		edges += j.res.TotalConflictEdges
		fixedPairs += j.res.FixedPairsTested
		shards += j.res.Shards
		exceed += j.exceed
		if j.rst != nil {
			rounds += j.rst.Rounds
			refinePairs += j.rst.PairsTested
		}
	}
	m["core.assign_s"] = assign.Seconds()
	m["core.build_s"] = build.Seconds()
	m["core.color_s"] = color.Seconds()
	m["core.iterations"] = float64(iters)
	m["core.carryover_frac"] = ratio(float64(failed), float64(active))
	m["core.conflict_edges"] = float64(edges)
	m["core.fixed_pass_s"] = (build - rec.totalUnder("backend.build", "engine.color")).Seconds()
	m["core.fixed_pairs_tested"] = float64(fixedPairs)
	m["core.shards"] = float64(shards)
	m["core.refine_s"] = rec.total("engine.refine", "").Seconds()
	m["core.refine_rounds"] = float64(rounds)
	m["core.refine_pairs_tested"] = float64(refinePairs)
	m["memtrack.budget_exceeded"] = float64(exceed)
	m["jobspec.normalize_s"] = rec.total("jobspec.normalize", "").Seconds()
	m["jobspec.build_input_s"] = rec.total("jobspec.build_input", "").Seconds()
	m["trace.overhead_s"] = (tracedWall - untracedWall).Seconds()
	finishTrace(o, rec, "run")
}

// finishTrace fills the self-time table and the share of the traced wall,
// the summed durations of the wall spans, that their descendants account
// for (the rest is the wall spans' own time).
func finishTrace(o *outcome, rec *recorder, wall string) {
	o.selfTimes = selfTimes(rec.spans)
	for _, r := range o.selfTimes {
		if r.Name == wall {
			o.metrics["trace.attributed_frac"] = 1 - ratio(r.Self.Seconds(), rec.total(wall, "").Seconds())
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
