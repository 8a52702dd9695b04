package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"picasso"
	"picasso/internal/backend"
	"picasso/internal/faultpoint"
	"picasso/internal/journal"
)

// worker is one member of the bounded coloring pool: it drains the job
// queue until Close closes it. Each worker owns one buffer arena for its
// lifetime, so steady-state job traffic recolors inside pooled storage —
// the arena grows to the worker's largest job and every later job of that
// size or smaller allocates next to nothing.
func (s *Server) worker() {
	defer s.wg.Done()
	arena := picasso.NewArena()
	for job := range s.queue {
		s.run(job, arena)
	}
}

// run executes one job end to end: attempt, retry transient failures with
// exponential backoff up to the spec's budget, classify the outcome, and
// journal the terminal transition before it becomes observable. Panic
// isolation lives in attempt — a panicking coloring run fails (or retries)
// that job, never the worker. Jobs cancelled while queued are skipped
// (already terminal); jobs cancelled while running are observed by the
// engine at its next stage boundary. A drain's cancellation lands in the
// "interrupted" state instead, which stays live in the journal so the next
// process resumes it.
func (s *Server) run(job *Job, arena *picasso.Arena) {
	s.mu.Lock()
	if job.State != StateQueued {
		// Cancelled between enqueue and pickup; already retained.
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.StartedAt = time.Now()
	job.Attempts++
	attempt := job.Attempts
	s.running++
	s.mu.Unlock()
	s.journalAppend(journal.Record{ID: job.ID, Event: journal.EventRunning, Attempt: attempt})

	t0 := time.Now()
	summary, groups, set, err := s.attempt(job, arena, attempt)
	for s.retryable(job, err) {
		s.mu.Lock()
		job.Attempts++
		attempt = job.Attempts
		s.stats.retried++
		s.mu.Unlock()
		s.journalAppend(journal.Record{ID: job.ID, Event: journal.EventRetry,
			Attempt: attempt, Note: err.Error()})
		if werr := s.backoff(job, attempt); werr != nil {
			err = werr // cancelled or deadlined mid-backoff: classify that, not the stale error
			break
		}
		summary, groups, set, err = s.attempt(job, arena, attempt)
	}
	elapsed := time.Since(t0)

	finished := time.Now()
	if err == nil {
		// Persist before the done state becomes observable: a client that
		// sees "done" may immediately restart the server against the same
		// artifact dir and expect the disk tier to answer.
		summary.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
		summary.Variant = job.Spec.Variant // "" (omitted) for standard coloring
		s.persistArtifact(job, set, groups, summary, finished)
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	state, event, errMsg := StateDone, journal.EventDone, ""
	switch {
	case errors.Is(err, context.Canceled) && draining:
		state, event, errMsg = StateInterrupted, journal.EventInterrupted, "interrupted by shutdown"
	case errors.Is(err, context.Canceled):
		state, event, errMsg = StateCancelled, journal.EventCancelled, "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		state, event, errMsg = StateFailed, journal.EventFailed, "deadline exceeded"
	case err != nil:
		state, event, errMsg = StateFailed, journal.EventFailed, err.Error()
	}

	// The journal learns the outcome before any client can: a crash between
	// the append and the in-memory transition merely re-runs dedup against
	// the persisted artifact at recovery. Interrupted jobs keep their
	// checkpoint sidecar — it is exactly what the next process resumes from.
	s.journalAppend(journal.Record{ID: job.ID, Event: event, Attempt: attempt, Note: errMsg})
	if state != StateInterrupted && s.store != nil {
		s.store.DeleteCheckpoint(job.ID)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	job.FinishedAt = finished
	job.State = state
	job.Err = errMsg
	switch state {
	case StateCancelled:
		s.stats.cancelled++
	case StateInterrupted:
		s.stats.interrupted++
	case StateFailed:
		s.stats.failed++
	default:
		job.Result = summary
		job.Groups = groups
		s.stats.completed++
		ms := float64(elapsed) / float64(time.Millisecond)
		if s.avgRunMS == 0 {
			s.avgRunMS = ms
		} else {
			s.avgRunMS = 0.7*s.avgRunMS + 0.3*ms
		}
	}
	s.releaseTenantLocked(job)
	s.retain(job)
}

// attempt is one isolated coloring attempt: the FaultWorkerColor seam
// fires first (with the attempt ordinal), and a panic anywhere below —
// injected or real — converts to an error for run's retry classification.
// (The arena stays reusable after a panic: every acquisition re-slices its
// buffer from scratch.)
func (s *Server) attempt(job *Job, arena *picasso.Arena, attempt int) (sum *ResultSummary, groups [][]int, set *picasso.PauliSet, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	if ferr := faultpoint.Hit(FaultWorkerColor, attempt); ferr != nil {
		return nil, nil, nil, ferr
	}
	return s.color(job, arena)
}

// color prepares the job's input and run options and makes the job's one
// engine call, streaming per-iteration statistics into the job's progress
// view. The coloring draws all iteration-scoped buffers from the worker's
// arena and observes the job's cancellation context at every engine stage
// boundary. The spec's schedule (stream, refine, portfolio) rides in the
// options; append and refine jobs replace it with their own (prepareAppend,
// prepareRefine). The returned set is the materialized Pauli input (nil for
// oracle jobs) so run can persist it alongside the result.
func (s *Server) color(job *Job, arena *picasso.Arena) (*ResultSummary, [][]int, *picasso.PauliSet, error) {
	opts := job.Spec.Options()
	if opts.Backend == "" {
		opts.Backend = s.cfg.DefaultBackend
	}
	if opts.MemoryBudgetBytes == 0 && s.cfg.DefaultBudgetBytes > 0 {
		opts.MemoryBudgetBytes = s.cfg.DefaultBudgetBytes
	}
	opts.Arena = arena
	opts.Progress = func(st picasso.IterStats) {
		s.mu.Lock()
		job.Progress.Iterations++
		job.Progress.RemainingVertices = st.Uncolored // global, incl. unreached shards
		job.Progress.ConflictEdges += st.ConflictEdges
		job.Progress.PairsTested += st.PairsTested
		s.mu.Unlock()
	}
	progressed := false
	opts.Checkpoint = func(st picasso.RunState) {
		if !st.Resumable() {
			return
		}
		s.mu.Lock()
		job.Progress.Shards = st.Shards
		job.Progress.ColoredVertices = st.NextStart
		progressed = true
		s.mu.Unlock()
		s.persistCheckpoint(job, st)
	}
	// An armed builder fault point wraps the job's real builder so the
	// injected error surfaces exactly where a device or allocator failure
	// would — inside the k-th conflict-subgraph build.
	if faultpoint.Armed(FaultBuilderBuild) {
		if inner, berr := backend.New(opts.Backend, backend.Config{Workers: opts.Workers}); berr == nil {
			opts.Builder = &faultBuilder{inner: inner}
		}
	}

	prepare := s.prepareRun
	switch {
	case job.Append != nil:
		prepare = s.prepareAppend
	case job.Refine != nil:
		prepare = s.prepareRefine
	}
	oracle, set, err := prepare(job, &opts)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := picasso.Run(job.ctx, oracle, opts)
	if err != nil {
		// A checkpoint the engine rejects outright (corrupt, or stale
		// against a changed spec) must not wedge the job: if the resumed
		// run made no progress and the job is still live, drop the
		// checkpoint and recolor from scratch within this same attempt.
		if opts.Resume != nil && job.ctx.Err() == nil {
			s.mu.Lock()
			fresh := !progressed
			if fresh {
				job.Resume = nil
			}
			s.mu.Unlock()
			if fresh {
				return s.color(job, arena)
			}
		}
		return nil, nil, nil, err
	}
	if race := res.Portfolio; race != nil {
		s.mu.Lock()
		s.stats.portfolioEntrants += int64(len(race.Entrants))
		s.stats.portfolioCancelled += int64(race.CancelledEntrants)
		s.stats.portfolioBoundPrunes += race.BoundPrunes
		s.mu.Unlock()
	}
	groups := picasso.ColorGroups(res.Colors)
	return summarize(res, groups), groups, set, nil
}

// prepareRun builds a fresh job's input and completes its schedule: a
// checkpoint from an earlier attempt (or the previous process) turns a
// streamed run into a resume — the already-colored prefix is restored
// instead of recolored — and streamed jobs without a portfolio block race
// the server's default entrants. A resumable checkpoint wins over that
// default: portfolio runs never checkpoint, so one can only exist for a job
// that previously ran single-entrant.
func (s *Server) prepareRun(job *Job, opts *picasso.Options) (picasso.Oracle, *picasso.PauliSet, error) {
	oracle, set, err := s.buildInput(job)
	if err != nil {
		return nil, nil, err
	}
	if !opts.Stream || opts.Portfolio != nil {
		return oracle, set, nil
	}
	s.mu.Lock()
	opts.Resume = job.Resume
	s.mu.Unlock()
	if opts.Resume == nil && s.cfg.DefaultEntrants >= 2 {
		opts.Portfolio = &picasso.PortfolioOptions{Entrants: s.cfg.DefaultEntrants}
	}
	return oracle, set, nil
}

// buildInput materializes a job's input, consulting the disk tier first: a
// prep artifact matching the base spec hands back the parsed input and
// skips the parse entirely. Child jobs come through here too — their Spec
// is the base spec, which is exactly the artifact that holds the shared
// input. For graph jobs the prep hit is more than an optimization: a spec
// rehydrated from its canonical string carries only the content key, and
// the persisted CSR is the payload behind it (AttachGraph re-verifies the
// content hash before the spec accepts it). Pauli inputs come back as the
// set plus its commutation oracle.
func (s *Server) buildInput(job *Job) (picasso.Oracle, *picasso.PauliSet, error) {
	set, g := s.prepInput(job)
	if set == nil {
		// The build may cache the graph in the spec, which status reads copy
		// under mu: build on a copy and publish it under mu.
		spec := job.Spec
		if g != nil && spec.GraphCSR() == nil {
			// A mismatch is left for BuildInput to report: it names what is
			// missing, while a silently wrong attach could never verify.
			_ = spec.AttachGraph(g)
		}
		oracle, built, err := spec.BuildInput()
		s.mu.Lock()
		job.Spec = spec
		s.mu.Unlock()
		if err != nil || built == nil {
			return oracle, nil, err
		}
		set = built
	}
	return picasso.NewPauliOracle(set), set, nil
}

// prepareRefine rebuilds the parent's input (base spec plus any appended
// strings) and replays the parent's frozen groups as the input coloring of
// a refinement-only run. The parent grouping was proper by construction;
// refinement keeps it proper while shrinking the group count. The parent
// spec's own refine and portfolio blocks do not apply: the request's knobs
// are the whole schedule.
func (s *Server) prepareRefine(job *Job, opts *picasso.Options) (picasso.Oracle, *picasso.PauliSet, error) {
	oracle, set, err := s.buildInput(job)
	if err != nil {
		return nil, nil, err
	}
	if set != nil {
		if err := appendStringsToSet(set, job.Refine.Strings); err != nil {
			return nil, nil, err
		}
	}
	// The parent groups must cover the rebuilt input exactly (Run checks):
	// refinement — unlike append — recolors only what already has a color.
	if opts.Frozen, err = replayGroups(job.Refine.Groups); err != nil {
		return nil, nil, err
	}
	opts.Refine = &picasso.RefineOptions{
		Rounds:       job.Refine.Rounds,
		TargetColors: job.Refine.TargetColors,
		BudgetBytes:  job.Refine.BudgetBytes,
	}
	opts.Portfolio = nil
	return oracle, set, nil
}

// appendStringsToSet parses a child job's carried strings and appends them
// to the rebuilt base set, enforcing the parent's qubit width — the shared
// fold-in step of every append/refine chain.
func appendStringsToSet(set *picasso.PauliSet, strs []string) error {
	for i, str := range strs {
		p, err := picasso.ParsePauliStrings([]string{str})
		if err != nil {
			return fmt.Errorf("appended string %d: %w", i, err)
		}
		if p.Qubits() != set.Qubits() {
			return fmt.Errorf("appended string %d has %d qubits, parent has %d",
				i, p.Qubits(), set.Qubits())
		}
		set.Append(p.At(0))
	}
	return nil
}

// replayGroups converts a frozen group partition back into a coloring of
// the vertices it covers (class ordinal = color — proper, since classes are
// exactly the parent's color classes), validating bounds and disjointness.
func replayGroups(groups [][]int) (picasso.Coloring, error) {
	n := 0
	for _, group := range groups {
		n += len(group)
	}
	prev := make(picasso.Coloring, n)
	for i := range prev {
		prev[i] = -1
	}
	for gi, group := range groups {
		for _, v := range group {
			if v < 0 || v >= n || prev[v] != -1 {
				return nil, fmt.Errorf("parent groups corrupt at vertex %d", v)
			}
			prev[v] = int32(gi)
		}
	}
	return prev, nil
}

// prepareAppend rebuilds the parent's base input, appends the job's full
// string list (a chained append's parent strings first, then the new
// ones), and freezes the parent's grouping: every vertex the parent's
// groups cover keeps its exact group, the rest are colored against them by
// the streaming engine's fixed-color pass. An append extends and nothing
// else — it never races or refines, whatever the parent's spec asked for.
func (s *Server) prepareAppend(job *Job, opts *picasso.Options) (picasso.Oracle, *picasso.PauliSet, error) {
	oracle, set, err := s.buildInput(job)
	if err != nil {
		return nil, nil, err
	}
	if set == nil {
		return nil, nil, fmt.Errorf("append parent is not a Pauli job")
	}
	base := set.Len()
	if err := appendStringsToSet(set, job.Append.Strings); err != nil {
		return nil, nil, err
	}
	// The frozen prefix is whatever the parent's groups cover: the base
	// input alone for a first append, base plus the parent's own appends
	// for a chained one.
	prev, err := replayGroups(job.Append.Groups)
	if err != nil {
		return nil, nil, err
	}
	if len(prev) < base || len(prev) > set.Len() {
		return nil, nil, fmt.Errorf("append parent groups cover %d strings, expected between %d and %d",
			len(prev), base, set.Len())
	}
	opts.Frozen, opts.Refine, opts.Portfolio = prev, nil, nil
	return oracle, set, nil
}

// summarize digests a Result for the status endpoint. A refinement pass
// adds the pre-refinement color count and rounds (the published count is
// the refined one), and its iteration and pair-test work accumulates on
// top of the coloring phase's, so inline-refine jobs report the whole
// pipeline, matching their live Progress counters. A race adds the
// portfolio block; the top-level fields then describe the winning run, its
// peak covering all lanes combined.
func summarize(res *picasso.Result, groups [][]int) *ResultSummary {
	sum := &ResultSummary{
		Vertices:           len(res.Colors),
		NumColors:          res.NumColors,
		NumGroups:          len(groups),
		Iterations:         len(res.Iters),
		MaxConflictEdges:   res.MaxConflictEdges,
		TotalConflictEdges: res.TotalConflictEdges,
		PairsTested:        res.TotalPairsTested,
		Fallback:           res.Fallback,
		Shards:             res.Shards,
		OverlapRatio:       res.OverlapRatio,
		SpecConflicts:      res.SpeculativeConflicts,
		RepairRecolors:     res.RepairRecolors,
		PeakBytes:          res.HostPeakBytes,
		BudgetExceeded:     res.BudgetExceeded,
		ResumedShards:      res.ResumedShards,
	}
	if rst := res.Refine; rst != nil {
		sum.ColorsBefore = rst.ColorsBefore
		sum.RefineRounds = rst.Rounds
		sum.Iterations += rst.Iterations
		sum.PairsTested += rst.PairsTested
	}
	if race := res.Portfolio; race != nil {
		ps := &PortfolioSummary{
			Entrants:     len(race.Entrants),
			Winner:       race.Winner,
			Bound:        race.Bound,
			Cancelled:    race.CancelledEntrants,
			BoundPrunes:  race.BoundPrunes,
			TimeToBestMS: float64(race.TimeToBest) / float64(time.Millisecond),
		}
		for _, e := range race.Entrants {
			ps.EntrantStats = append(ps.EntrantStats, EntrantSummary{
				Index:            e.Index,
				Name:             e.Name,
				Colors:           e.Colors,
				Shards:           e.Shards,
				WallMS:           float64(e.Wall) / float64(time.Millisecond),
				PeakBytes:        e.PeakBytes,
				BoundPrunes:      e.BoundPrunes,
				Cancelled:        e.Cancelled,
				CancelledAtShard: e.CancelledAtShard,
			})
		}
		sum.Portfolio = ps
	}
	return sum
}
