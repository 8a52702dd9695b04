package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
	"picasso/internal/pauli"
)

// The invariant harness: every input × backend × schedule × seed runs once
// through Run and is held to the engine's invariants (see TestInvariants).
// Inputs are small enough that the whole matrix stays a few seconds, and
// large enough for five fixed shards and a budget-derived split.
const (
	invN      = 400
	invShard  = invN / 5
	invBudget = 64 << 20 // far above every fixed-shard run: crossing it is a bug
)

var invInputs = []struct {
	name string
	o    graph.Oracle
	big  graph.Oracle // 8·invN vertices of the same kind: grows the reruns' arena
}{
	{"random", graph.RandomOracle{N: invN, P: 0.5, Seed: 41}, graph.RandomOracle{N: 8 * invN, P: 0.5, Seed: 42}},
	{"pauli", NewPauliOracle(pauli.RandomSet(16, invN, rand.New(rand.NewSource(8)))),
		NewPauliOracle(pauli.RandomSet(16, 8*invN, rand.New(rand.NewSource(9))))},
}

// invBackends are the conflict-construction paths. Each case gets its own
// device, so device peaks never mix across runs.
var invBackends = []struct {
	name   string
	device bool // builds on the simulated device
	set    func(*Options)
}{
	{"auto", false, func(*Options) {}},
	{"sequential", false, func(o *Options) { o.Backend = "sequential" }},
	{"parallel", false, func(o *Options) { o.Backend = "parallel"; o.Workers = 4 }},
	{"gpu", true, func(o *Options) { o.Backend = "gpu"; o.Device = gpusim.NewDevice("t", 1<<30, 4) }},
	{"auto-device", true, func(o *Options) { o.Device = gpusim.NewDevice("t", 1<<30, 2) }},
}

const invSequential = 1 // index of "sequential" in invBackends: the reference

// invSchedules are the Run schedules. fixed: shard boundaries do not depend
// on tracked bytes, so the coloring and its work match the sequential
// backend's (budget-derived shard sizes follow tracked host bytes, and the
// gpu backend does not charge a CSR it keeps on the device). resume: every
// checkpoint resumes to the uninterrupted run (budget-derived shard sizes
// may adapt differently after a resume, so there it resumes to some proper
// coloring). lanes: units run concurrently, so the tracked peak depends on
// how they interleave.
type invSchedule struct {
	name                 string
	fixed, resume, lanes bool
}

var invSchedules = []invSchedule{
	{"one-shot", true, false, false},
	{"stream", true, true, false},
	{"stream-budget", false, false, false},
	{"speculate-2", true, true, true},
	{"speculate-3", true, true, true},
	{"speculate-fallback", true, true, false},
	{"append", true, true, false},
	{"refine", true, false, false},
	{"portfolio", true, false, true},
}

// invCase names one harness case.
type invCase struct {
	input, backend int
	schedule       string
	seed           int64
}

func (c invCase) with(backend int, schedule string) invCase {
	c.backend, c.schedule = backend, schedule
	return c
}

// invRun is one Run of a case with everything it observed.
type invRun struct {
	opts  Options
	tr    *memtrack.Tracker
	res   *Result
	ckpts []RunState
}

// invHarness memoizes each case's first run, so the references other cases
// compare against (the sequential backend, the plain stream, the one-shot
// coloring that append and refine start from) run once, whichever case asks
// first — a single case rerun alone computes exactly what it needs. First
// runs get a private arena each; reruns share the warm one.
type invHarness struct {
	runs map[invCase]*invRun
	warm *Arena // see rerun
}

func (h *invHarness) run(t *testing.T, c invCase) *invRun {
	t.Helper()
	if r, ok := h.runs[c]; ok {
		return r
	}
	r := h.fresh(t, c, nil)
	h.runs[c] = r
	return r
}

// rerun runs the case again on the input's warm arena: it is first grown by
// a one-shot run of the input's 8·invN-vertex sibling, and every later
// rerun reuses it, so each rerun starts from buffers sized and dirtied by
// other runs.
func (h *invHarness) rerun(t *testing.T, c invCase) *invRun {
	t.Helper()
	if h.warm == nil {
		h.warm = NewArena()
		opts := Normal(1)
		opts.Backend, opts.Arena = "sequential", h.warm
		if _, err := Run(context.Background(), invInputs[c.input].big, opts); err != nil {
			t.Fatalf("growing the warm arena: %v", err)
		}
	}
	return h.fresh(t, c, h.warm)
}

// fresh runs the case without memoization, on ar (nil = a private arena).
func (h *invHarness) fresh(t *testing.T, c invCase, ar *Arena) *invRun {
	t.Helper()
	r := &invRun{opts: h.options(t, c), tr: &memtrack.Tracker{}}
	r.opts.Tracker, r.opts.Arena = r.tr, ar
	r.opts.Checkpoint = func(st RunState) { r.ckpts = append(r.ckpts, st) }
	res, err := Run(context.Background(), invInputs[c.input].o, r.opts)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	r.res = res
	return r
}

// options builds the case's Options (without Tracker, Checkpoint and Arena).
func (h *invHarness) options(t *testing.T, c invCase) Options {
	t.Helper()
	opts := Normal(c.seed)
	invBackends[c.backend].set(&opts)
	opts.MemoryBudgetBytes = invBudget
	switch c.schedule {
	case "one-shot":
	case "stream":
		opts.Stream, opts.ShardSize = true, invShard
	case "stream-budget":
		opts.Stream = true
		opts.MemoryBudgetBytes = h.run(t, c.with(invSequential, "one-shot")).tr.Peak() / 3
	case "speculate-2", "speculate-3":
		opts.Stream, opts.ShardSize = true, invShard
		opts.Speculate = int(c.schedule[len(c.schedule)-1] - '0')
	case "speculate-fallback":
		// Two lanes asked for under a budget that fits one worst-case shard
		// and not two: the lane governor holds the run to one lane.
		opts.Stream, opts.ShardSize, opts.Speculate = true, invShard, 2
		opts.MemoryBudgetBytes = shardFootprint(&opts, invInputs[c.input].o, invN, invShard) * 3 / 2
	case "append":
		// The last shard's worth of vertices appended, in two shards, behind
		// the one-shot coloring of the rest (proper on the prefix, as any
		// restriction of a proper coloring is).
		opts.Frozen = slices.Clone(h.run(t, c.with(invSequential, "one-shot")).res.Colors[:invN-invShard])
		opts.ShardSize = invShard / 2
	case "refine":
		opts.Frozen = slices.Clone(h.run(t, c.with(invSequential, "one-shot")).res.Colors)
		opts.Refine = &RefineOptions{Rounds: 4}
	case "portfolio":
		opts.Stream, opts.ShardSize = true, invShard
		opts.Portfolio = &PortfolioOptions{Entrants: 3}
	default:
		t.Fatalf("unknown schedule %q", c.schedule)
	}
	return opts
}

// invDigest is the deterministic part of a Result: everything but timings,
// memory peaks and the portfolio's entrant records (see sameEntrants).
type invDigest struct {
	NumColors, Iters, Shards                   int
	SpeculativeConflicts, RepairRecolors       int
	TotalPairsTested, FixedPairsTested         int64
	TotalConflictEdges, MaxConflictEdges       int64
	Fallback                                   bool
	Winner                                     int
	RefineColors, RefineRounds, RefineIters    int
	RefinePairsTested, RefineFixedPairsTested  int64
	RefineMoved, RefineStuck, RefineEliminated int
}

func digest(res *Result) invDigest {
	d := invDigest{
		NumColors: res.NumColors, Iters: len(res.Iters), Shards: res.Shards,
		SpeculativeConflicts: res.SpeculativeConflicts, RepairRecolors: res.RepairRecolors,
		TotalPairsTested: res.TotalPairsTested, FixedPairsTested: res.FixedPairsTested,
		TotalConflictEdges: res.TotalConflictEdges, MaxConflictEdges: res.MaxConflictEdges,
		Fallback: res.Fallback,
	}
	if p := res.Portfolio; p != nil {
		d.Winner = p.Winner
	}
	if r := res.Refine; r != nil {
		d.RefineColors, d.RefineRounds, d.RefineIters = r.ColorsAfter, r.Rounds, r.Iterations
		d.RefinePairsTested, d.RefineFixedPairsTested = r.PairsTested, r.FixedPairsTested
		d.RefineMoved, d.RefineStuck, d.RefineEliminated = r.Moved, r.Stuck, r.ClassesEliminated
	}
	return d
}

// sameColoring returns an error naming the first vertex where got differs
// from want.
func sameColoring(got, want graph.Coloring) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d colors, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d has color %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// sameEntrants compares two races entrant by entrant. Which losers the race
// cancels depends on timing, but every entrant that completed in both is a
// pure function of its Options.
func sameEntrants(got, want *Result) error {
	if got.Portfolio == nil || want.Portfolio == nil {
		return nil
	}
	for i, w := range want.Portfolio.Entrants {
		g := got.Portfolio.Entrants[i]
		if !g.Cancelled && !w.Cancelled && g.Colors != w.Colors {
			return fmt.Errorf("entrant %d used %d colors, want %d", i, g.Colors, w.Colors)
		}
	}
	return nil
}

// TestInvariants holds every (input, backend, schedule, seed) case to the
// engine's invariants, stated once:
//
//   - the coloring is proper, and a rerun on a warm arena is bit-identical,
//     tracked peak included (except where concurrent lanes interleave);
//   - with fixed shard boundaries the coloring and its work equal the
//     sequential backend's (the paper's §VII-B1: randomness comes after a
//     deterministic conflict graph);
//   - speculation the budget holds to one lane equals the stream;
//   - resuming from every JSON-round-tripped checkpoint equals the
//     uninterrupted run;
//   - peak ≤ budget or BudgetExceeded is set, and no tracked bytes remain;
//   - Σ IterStats equals the Result totals, and a stream checkpoints once
//     per shard;
//   - each schedule's own counters hold.
//
// A failing case logs the command that reruns it alone.
func TestInvariants(t *testing.T) {
	invariants(t, func(h *invHarness, t *testing.T, c invCase, sched invSchedule) {
		h.check(t, c, sched)
		h.checkResume(t, c, sched)
	})
}

// The per-feature contracts are views of the harness: each runs the cases
// of its schedules and applies the half of the invariants its name
// promises, the run (check) or the checkpoints (checkResume).

func TestColorDeterministicAcrossBackends(t *testing.T) {
	invariants(t, (*invHarness).check, "one-shot")
}

func TestStreamProperColoringEveryBackend(t *testing.T) {
	invariants(t, (*invHarness).check, "stream")
}

// The lane governor's fallback keeps the concurrent-shard contract: a
// stream asked to run shards concurrently but held to one lane by its
// budget is the plain stream, bit for bit, on every backend.
func TestStreamSpeculateFallbackBitIdenticalEveryBackend(t *testing.T) {
	invariants(t, (*invHarness).check, "speculate-fallback")
}

func TestStreamSpeculativeProperDeterministicEveryBackend(t *testing.T) {
	invariants(t, (*invHarness).check, "speculate-2", "speculate-3")
}

func TestPortfolioDeterministicWinnerEveryBackend(t *testing.T) {
	invariants(t, (*invHarness).check, "portfolio")
}

func TestRefineProperMonotoneEveryBackend(t *testing.T) {
	invariants(t, (*invHarness).check, "refine")
}

// TestRefineEliminatesClasses holds refinement to making progress, which
// no single seed promises: 4 rounds on the sequential backend, from each
// seed's one-shot coloring, must eliminate at least 36 classes per harness
// input over seeds 1–20.
func TestRefineEliminatesClasses(t *testing.T) {
	for in, input := range invInputs {
		h := &invHarness{runs: map[invCase]*invRun{}}
		eliminated := 0
		for seed := int64(1); seed <= 20; seed++ {
			eliminated += h.run(t, invCase{in, invSequential, "refine", seed}).res.Refine.ClassesEliminated
		}
		if eliminated < 36 {
			t.Errorf("%s: refinement eliminated %d classes over seeds 1–20, want at least 36", input.name, eliminated)
		}
	}
}

func TestStreamCheckpointResumeDeterminism(t *testing.T) {
	invariants(t, (*invHarness).checkResume, "stream")
}

func TestStreamSpeculateFallbackCheckpointResume(t *testing.T) {
	invariants(t, (*invHarness).checkResume, "speculate-fallback")
}

func TestStreamSpeculativeCheckpointResume(t *testing.T) {
	invariants(t, (*invHarness).checkResume, "speculate-2", "speculate-3")
}

// invariants applies check to every input × backend × seed case of the
// named schedules (of every schedule when none is named), as subtests
// <input>/<backend>/<schedule>/seed=<k>.
func invariants(t *testing.T, check func(*invHarness, *testing.T, invCase, invSchedule), schedules ...string) {
	for in, input := range invInputs {
		t.Run(input.name, func(t *testing.T) {
			// Inputs share nothing, so they run side by side, each with its
			// own memo.
			t.Parallel()
			h := &invHarness{runs: map[invCase]*invRun{}}
			for be, backend := range invBackends {
				t.Run(backend.name, func(t *testing.T) {
					for _, sched := range invSchedules {
						if len(schedules) > 0 && !slices.Contains(schedules, sched.name) {
							continue
						}
						t.Run(sched.name, func(t *testing.T) {
							for _, seed := range []int64{1, 7} {
								t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
									t.Cleanup(func() {
										if t.Failed() {
											t.Logf("rerun alone: go test ./internal/core -run '%s'", runPattern(t.Name()))
										}
									})
									check(h, t, invCase{in, be, sched.name, seed}, sched)
								})
							}
						})
					}
				})
			}
		})
	}
}

// runPattern turns a subtest name into the -run pattern selecting only it.
func runPattern(name string) string {
	elems := strings.Split(name, "/")
	for i, e := range elems {
		elems[i] = "^" + regexp.QuoteMeta(e) + "$"
	}
	return strings.Join(elems, "/")
}

// check holds a case's run to the invariants: proper, deterministic, within
// budget, stats that add up, equal across backends, and its schedule's
// counters.
func (h *invHarness) check(t *testing.T, c invCase, sched invSchedule) {
	o := invInputs[c.input].o
	r := h.run(t, c)
	res := r.res

	// Proper, and bit-identical on a rerun whose arena other runs warmed.
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatalf("coloring not proper: %v", err)
	}
	again := h.rerun(t, c)
	if err := sameColoring(again.res.Colors, res.Colors); err != nil {
		t.Errorf("rerun: %v", err)
	}
	if d, want := digest(again.res), digest(res); d != want {
		t.Errorf("rerun digest %+v, want %+v", d, want)
	}
	if err := sameEntrants(again.res, res); err != nil {
		t.Errorf("rerun: %v", err)
	}
	if !sched.lanes && again.res.HostPeakBytes != res.HostPeakBytes {
		t.Errorf("rerun tracked peak %d, want %d", again.res.HostPeakBytes, res.HostPeakBytes)
	}

	// The budget is honest and every tracked byte is released.
	if r.tr.Peak() > r.opts.MemoryBudgetBytes && !res.BudgetExceeded {
		t.Errorf("tracked peak %d over budget %d but not reported", r.tr.Peak(), r.opts.MemoryBudgetBytes)
	}
	if r.tr.Current() != 0 {
		t.Errorf("%d tracked bytes remain after Run", r.tr.Current())
	}

	// The per-iteration records add up to the Result totals. A speculative
	// run's repair-detection scans belong to no iteration (see
	// Result.FixedPairsTested).
	var sum Result
	onDevice := false
	for _, it := range res.Iters {
		sum.TotalPairsTested += it.PairsTested
		sum.FixedPairsTested += it.FixedPairsTested
		sum.TotalConflictEdges += it.ConflictEdges
		sum.MaxConflictEdges = max(sum.MaxConflictEdges, it.ConflictEdges)
		onDevice = onDevice || it.DevicePeakBytes > 0
	}
	if sum.TotalPairsTested != res.TotalPairsTested || sum.TotalConflictEdges != res.TotalConflictEdges ||
		sum.MaxConflictEdges != res.MaxConflictEdges {
		t.Errorf("Σ IterStats pairs %d, edges %d, max %d; Result says %d, %d, %d",
			sum.TotalPairsTested, sum.TotalConflictEdges, sum.MaxConflictEdges,
			res.TotalPairsTested, res.TotalConflictEdges, res.MaxConflictEdges)
	}
	speculative := strings.HasPrefix(c.schedule, "speculate")
	if sum.FixedPairsTested != res.FixedPairsTested && !(speculative && sum.FixedPairsTested < res.FixedPairsTested) {
		t.Errorf("Σ IterStats fixed pairs %d, Result says %d", sum.FixedPairsTested, res.FixedPairsTested)
	}
	if len(res.Iters) > 0 && onDevice != invBackends[c.backend].device {
		t.Errorf("device builds %v, want %v", onDevice, invBackends[c.backend].device)
	}

	// Every backend colors alike when shard boundaries are fixed.
	if sched.fixed && c.backend != invSequential {
		ref := h.run(t, c.with(invSequential, c.schedule)).res
		if err := sameColoring(res.Colors, ref.Colors); err != nil {
			t.Errorf("vs sequential backend: %v", err)
		}
		if d, want := digest(res), digest(ref); d != want {
			t.Errorf("digest %+v, sequential backend %+v", d, want)
		}
		if err := sameEntrants(res, ref); err != nil {
			t.Errorf("vs sequential backend: %v", err)
		}
	}

	h.checkSchedule(t, c, r)
}

// checkResume holds a case's checkpoints to the resume contract: each is a
// resumable boundary published where the schedule puts one, and resuming
// from any of them after a JSON round trip lands on the uninterrupted
// coloring — with budget-derived shards, on a proper one that keeps the
// checkpoint's prefix (Options.Resume).
func (h *invHarness) checkResume(t *testing.T, c invCase, sched invSchedule) {
	o := invInputs[c.input].o
	r := h.run(t, c)
	res := r.res

	for k := range r.ckpts {
		if !r.ckpts[k].Resumable() {
			t.Fatalf("checkpoint %d not resumable", k)
		}
	}
	switch c.schedule {
	case "one-shot":
		if len(r.ckpts) != 0 {
			t.Errorf("one-shot run published %d checkpoints", len(r.ckpts))
		}
	case "stream", "stream-budget", "speculate-fallback", "append":
		if len(r.ckpts) != res.Shards {
			t.Errorf("%d checkpoints for %d shards", len(r.ckpts), res.Shards)
		}
		// One lane publishes the stream's own boundaries.
		if c.schedule == "speculate-fallback" && !reflect.DeepEqual(r.ckpts, h.run(t, c.with(c.backend, "stream")).ckpts) {
			t.Error("checkpoints differ from the stream's")
		}
	case "speculate-2", "speculate-3":
		// One checkpoint per fully repaired group of S shards.
		S := r.opts.Speculate
		if want := (res.Shards + S - 1) / S; len(r.ckpts) != want {
			t.Fatalf("%d group checkpoints, want %d", len(r.ckpts), want)
		}
		for k, st := range r.ckpts {
			want := min((k+1)*S, res.Shards)
			if next := min(want*invShard, invN); st.Shards != want || st.NextStart != next {
				t.Errorf("group checkpoint %d at shard %d / vertex %d, want %d / %d",
					k, st.Shards, st.NextStart, want, next)
			}
		}
	}

	for k, st := range r.ckpts {
		blob, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		var back RunState
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		opts := h.options(t, c)
		opts.Frozen, opts.Resume = nil, &back
		got, err := Run(context.Background(), o, opts)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", k, err)
		}
		if !sched.resume {
			if err := graph.VerifyOracle(o, got.Colors); err != nil {
				t.Errorf("resume from checkpoint %d: %v", k, err)
			}
			if err := sameColoring(got.Colors[:st.NextStart], st.Colors[:st.NextStart]); err != nil {
				t.Errorf("resume from checkpoint %d: prefix %v", k, err)
			}
			continue
		}
		if err := sameColoring(got.Colors, res.Colors); err != nil {
			t.Errorf("resume from checkpoint %d: %v", k, err)
		}
		if got.Shards != res.Shards {
			t.Errorf("resume from checkpoint %d: %d shards, want %d", k, got.Shards, res.Shards)
		}
	}
}

// checkSchedule asserts the counters particular to each schedule.
func (h *invHarness) checkSchedule(t *testing.T, c invCase, r *invRun) {
	res := r.res
	shards := func(want int) {
		t.Helper()
		if res.Shards != want {
			t.Errorf("%d shards, want %d", res.Shards, want)
		}
	}
	underBudget := func() {
		t.Helper()
		if res.BudgetExceeded {
			t.Errorf("budget %d reported exceeded", r.opts.MemoryBudgetBytes)
		}
	}
	switch c.schedule {
	case "one-shot":
		shards(0)
	case "stream":
		shards(invN / invShard)
		underBudget()
		if res.FixedPairsTested == 0 {
			t.Error("fixed-color pass never ran")
		}
		if one := h.run(t, c.with(c.backend, "one-shot")).res; res.NumColors > 2*one.NumColors {
			t.Errorf("streamed %d colors vs one-shot %d (factor > 2)", res.NumColors, one.NumColors)
		}
	case "stream-budget":
		if res.Shards < 2 {
			t.Errorf("budget %d below the one-shot peak made %d shard(s)", r.opts.MemoryBudgetBytes, res.Shards)
		}
	case "speculate-2", "speculate-3":
		shards(invN / invShard)
		underBudget()
		if res.RepairRecolors > res.SpeculativeConflicts {
			t.Errorf("%d repair recolors out of %d conflicts", res.RepairRecolors, res.SpeculativeConflicts)
		}
	case "speculate-fallback":
		shards(invN / invShard)
		underBudget()
		if res.SpeculativeConflicts != 0 || res.OverlapRatio != 0 {
			t.Errorf("%d speculative conflicts, overlap ratio %v: the run speculated",
				res.SpeculativeConflicts, res.OverlapRatio)
		}
		stream := h.run(t, c.with(c.backend, "stream")).res
		if err := sameColoring(res.Colors, stream.Colors); err != nil {
			t.Errorf("vs the stream: %v", err)
		}
		if d, want := digest(res), digest(stream); d != want {
			t.Errorf("digest %+v, stream %+v", d, want)
		}
	case "append":
		shards(2)
		if err := sameColoring(res.Colors[:len(r.opts.Frozen)], r.opts.Frozen); err != nil {
			t.Errorf("frozen prefix recolored: %v", err)
		}
	case "refine":
		st := res.Refine
		base := h.run(t, c.with(invSequential, "one-shot")).res.Colors
		if err := sameColoring(r.opts.Frozen, base); err != nil {
			t.Errorf("refine scribbled on its input: %v", err)
		}
		if st.ColorsBefore != base.NumColors() || st.ColorsAfter != res.Colors.NumColors() {
			t.Errorf("colors %d -> %d, input has %d and output %d",
				st.ColorsBefore, st.ColorsAfter, base.NumColors(), res.Colors.NumColors())
		}
		if st.ClassesEliminated != st.ColorsBefore-st.ColorsAfter || st.ClassesEliminated < 0 {
			t.Errorf("eliminated %d classes going %d -> %d", st.ClassesEliminated, st.ColorsBefore, st.ColorsAfter)
		}
		var pairs, fixed int64
		iters, prev := 0, st.ColorsBefore
		for _, rd := range st.RoundStats {
			if rd.ColorsAfter > prev {
				t.Errorf("round %d raised colors %d -> %d", rd.Round, prev, rd.ColorsAfter)
			}
			if rd.Recolored+rd.Stuck != rd.Moved {
				t.Errorf("round %d moved %d != recolored %d + stuck %d", rd.Round, rd.Moved, rd.Recolored, rd.Stuck)
			}
			prev = rd.ColorsAfter
			pairs += rd.PairsTested
			fixed += rd.FixedPairsTested
			iters += rd.Iterations
		}
		if pairs != st.PairsTested || fixed != st.FixedPairsTested || iters != st.Iterations {
			t.Errorf("Σ rounds: %d pairs, %d fixed, %d iterations; RefineStats says %d, %d, %d",
				pairs, fixed, iters, st.PairsTested, st.FixedPairsTested, st.Iterations)
		}
		if st.FixedPairsTested == 0 {
			t.Error("frozen-frontier pass never ran")
		}
	case "portfolio":
		// A cancelled entrant stopped early and reports no colors; every
		// entrant that finished loses to the winner's (colors, index), and
		// the winner is no worse than the phase-A baseline.
		p := res.Portfolio
		w := p.Entrants[p.Winner]
		for i, e := range p.Entrants {
			if e.Cancelled != (e.Colors == 0) || e.Cancelled && e.CancelledAtShard < 1 {
				t.Errorf("entrant %d: cancelled %v at shard %d with %d colors", i, e.Cancelled, e.CancelledAtShard, e.Colors)
			}
			if !e.Cancelled && (e.Colors < w.Colors || e.Colors == w.Colors && i < p.Winner) {
				t.Errorf("entrant %d (%d colors) beats winner %d (%d colors)", i, e.Colors, p.Winner, w.Colors)
			}
		}
		if res.NumColors > p.Entrants[0].Colors {
			t.Errorf("winner %d colors against the phase-A baseline's %d", res.NumColors, p.Entrants[0].Colors)
		}
	}
}
