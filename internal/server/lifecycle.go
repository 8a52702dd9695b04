package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"picasso"
	"picasso/internal/backend"
	"picasso/internal/faultpoint"
	"picasso/internal/jobspec"
	"picasso/internal/journal"
	"picasso/internal/memtrack"
)

// Fault points hit by the job lifecycle, armed only by tests and the
// crash harness (the journal has two more of its own).
const (
	// FaultWorkerColor fires at the top of every coloring attempt with the
	// attempt ordinal: an injected error is a transient worker failure, a
	// panicking hook exercises the pool's panic isolation.
	FaultWorkerColor = "server.worker.color"
	// FaultBuilderBuild fires before every conflict-subgraph build with
	// the build ordinal — the "builder error on shard k" shape. Arming it
	// wraps the job's builder, which forces sequential stream lanes.
	FaultBuilderBuild = "server.builder.build"
	// FaultCheckpointWrite fires before a shard checkpoint is persisted;
	// an injected error skips the write (the crash-before-persist shape —
	// the in-memory run continues, but restart loses that boundary).
	FaultCheckpointWrite = "server.checkpoint.persist"
)

// journalFileName is the job journal's file name inside ArtifactDir.
const journalFileName = "journal.wal"

// jobEnvelope is the journal's Data payload on an accepted record:
// everything needed to reconstruct the Job at recovery. Child jobs carry
// their lineage ids and strings but NOT the parent's groups — those are
// re-resolved from the parent's persisted artifact, which is smaller and
// cannot go stale.
type jobEnvelope struct {
	Spec        jobspec.Spec `json:"spec"`
	Canonical   string       `json:"canonical"`
	Tenant      string       `json:"tenant,omitempty"`
	SubmittedAt string       `json:"submitted_at"`
	Append      *envelopeApp `json:"append,omitempty"`
	Refine      *envelopeRef `json:"refine,omitempty"`
}

type envelopeApp struct {
	ParentID string   `json:"parent_id"`
	Strings  []string `json:"strings,omitempty"`
	Appended int      `json:"appended,omitempty"`
}

type envelopeRef struct {
	ParentID     string   `json:"parent_id"`
	Rounds       int      `json:"rounds,omitempty"`
	TargetColors int      `json:"target_colors,omitempty"`
	BudgetBytes  int64    `json:"budget_bytes,omitempty"`
	Strings      []string `json:"strings,omitempty"`
}

// envelope snapshots a job for its journal accepted record.
func envelope(j *Job) jobEnvelope {
	env := jobEnvelope{
		Spec:        j.Spec,
		Canonical:   j.Canonical,
		Tenant:      j.Tenant,
		SubmittedAt: j.SubmittedAt.UTC().Format(time.RFC3339Nano),
	}
	if j.Append != nil {
		env.Append = &envelopeApp{ParentID: j.Append.ParentID, Strings: j.Append.Strings, Appended: j.Append.Appended}
	}
	if j.Refine != nil {
		env.Refine = &envelopeRef{
			ParentID: j.Refine.ParentID, Rounds: j.Refine.Rounds,
			TargetColors: j.Refine.TargetColors, BudgetBytes: j.Refine.BudgetBytes,
			Strings: j.Refine.Strings,
		}
	}
	return env
}

// journalAppend records one lifecycle transition, serialized under its own
// lock (appends fsync; the job-table mutex must never wait on disk).
// Best-effort everywhere but the accepted record: a journal that stops
// accepting writes degrades recovery, it never takes the service down.
func (s *Server) journalAppend(r journal.Record) error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return nil
	}
	r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	return s.journal.Append(r)
}

// closeJournal closes the journal file; later appends become no-ops.
func (s *Server) closeJournal() {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}

// Drain is the graceful-shutdown path: stop accepting submissions, cancel
// every queued and running job (streamed runs stop at their next stage
// boundary — their latest shard checkpoint is already persisted), wait for
// the pool, and close the journal. Interrupted jobs keep a non-terminal
// journal state, so the next process on this artifact dir re-enqueues them
// and resumes streamed runs from their checkpoints. Close, by contrast,
// runs the queue dry — use Drain when restart latency matters more than
// finishing in this process.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.draining = true
	for _, j := range s.jobs {
		if j.State == StateQueued || j.State == StateRunning {
			j.cancel()
		}
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	s.closeJournal()
}

// recover replays the journal's surviving records and re-installs every
// job the previous process accepted but never finished: queued jobs are
// re-enqueued as-is; jobs that were running resume from their persisted
// RunState checkpoint when one survives ("resumed" in stats) and restart
// from scratch otherwise ("restarted"). Runs before the worker pool
// starts, so re-enqueued jobs land in the buffered queue unobserved.
// Finishes by compacting the journal down to one accepted record per
// live job.
func (s *Server) recoverJournal(recs []journal.Record) {
	type jstate struct {
		env     *jobEnvelope
		last    string
		attempt int
	}
	states := make(map[string]*jstate)
	var order []string // deterministic re-enqueue: first-accepted first
	for _, r := range recs {
		st := states[r.ID]
		if st == nil {
			st = &jstate{}
			states[r.ID] = st
			order = append(order, r.ID)
		}
		st.last = r.Event
		if r.Attempt > st.attempt {
			st.attempt = r.Attempt
		}
		if r.Event == journal.EventAccepted && len(r.Data) > 0 && st.env == nil {
			var env jobEnvelope
			if json.Unmarshal(r.Data, &env) == nil {
				st.env = &env
			}
		}
	}

	var keep []journal.Record
	for _, id := range order {
		st := states[id]
		if st.env == nil || journal.Terminal(st.last) {
			continue // finished, or unreconstructable (accepted record lost to a tear)
		}
		if s.recoverJob(id, st.env, st.last, st.attempt) {
			data, err := json.Marshal(st.env)
			if err != nil {
				continue
			}
			keep = append(keep, journal.Record{
				Time: time.Now().UTC().Format(time.RFC3339Nano),
				ID:   id, Event: journal.EventAccepted, Data: data,
			})
		}
	}
	s.jmu.Lock()
	if s.journal != nil {
		s.journal.Rewrite(keep)
	}
	s.jmu.Unlock()
}

// recoverJob rebuilds one live job from its journal envelope and
// re-enqueues it. Returns whether the job is live again (false = it was
// installed in a terminal state instead: unresolvable parent, queue
// overflow). Runs single-threaded at startup.
func (s *Server) recoverJob(id string, env *jobEnvelope, lastEvent string, attempts int) bool {
	// A complete artifact under this id means the job actually finished and
	// only its done record was lost (the artifact persists before the
	// journal's terminal append): rehydrate it instead of recoloring.
	if s.rehydrateByID(id) != nil {
		if s.store != nil {
			s.store.DeleteCheckpoint(id)
		}
		return false
	}
	j := &Job{
		ID:        id,
		Spec:      env.Spec,
		Canonical: env.Canonical,
		Tenant:    env.Tenant,
		Attempts:  attempts,
	}
	if err := j.Spec.Normalize(); err != nil {
		return s.installRecoveryFailure(j, fmt.Sprintf("recovery: bad spec: %v", err))
	}
	if j.Canonical == "" || JobID(j.Canonical) != id {
		return s.installRecoveryFailure(j, "recovery: envelope canonical does not hash to the job id")
	}
	j.SubmittedAt = time.Now()
	if t, err := time.Parse(time.RFC3339Nano, env.SubmittedAt); err == nil {
		j.SubmittedAt = t // deadlines stay anchored to the original submission
	}

	// Child jobs re-resolve their parent's frozen groups from the disk
	// tier — the envelope deliberately does not carry them.
	if env.Append != nil || env.Refine != nil {
		pid := ""
		if env.Append != nil {
			pid = env.Append.ParentID
		} else {
			pid = env.Refine.ParentID
		}
		parent := s.jobs[pid]
		if parent == nil {
			parent = s.rehydrateByID(pid)
		}
		if parent == nil || parent.State != StateDone {
			return s.installRecoveryFailure(j, "recovery: parent job "+pid+" unavailable")
		}
		if env.Append != nil {
			j.Append = &appendJob{ParentID: pid, Strings: env.Append.Strings,
				Appended: env.Append.Appended, Groups: parent.Groups}
		} else {
			j.Refine = &refineJob{ParentID: pid, Rounds: env.Refine.Rounds,
				TargetColors: env.Refine.TargetColors, BudgetBytes: env.Refine.BudgetBytes,
				Strings: env.Refine.Strings, Groups: parent.Groups}
		}
	}

	// A persisted checkpoint turns the restart into a resume. Only plain
	// streamed jobs checkpoint; anything else — and any checkpoint that
	// fails its CRC, address, or resumability checks — restarts.
	hadStarted := lastEvent != journal.EventAccepted
	if j.Spec.Streamed() && j.Append == nil && j.Refine == nil && s.store != nil {
		if canonical, blob, err := s.store.GetCheckpoint(id); err == nil && canonical == j.Canonical {
			var rs picasso.RunState
			if json.Unmarshal(blob, &rs) == nil && rs.Resumable() {
				j.Resume = &rs
			}
		}
	}
	switch {
	case j.Resume != nil:
		s.stats.resumed++
	case hadStarted:
		s.stats.restarted++
	}

	j.State = StateQueued
	j.Hits = 1
	j.ctx, j.cancel = jobContext(j.SubmittedAt, j.Spec.DeadlineDuration())
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.holdTenantLocked(j)
		return true
	default:
		return s.installRecoveryFailure(j, "recovery: job queue full")
	}
}

// installRecoveryFailure parks an unrecoverable job in the terminal failed
// state so its fate is observable, and drops it from the journal (returns
// false). Runs single-threaded at startup.
func (s *Server) installRecoveryFailure(j *Job, msg string) bool {
	j.State = StateFailed
	j.Err = msg
	j.Hits = 1
	if j.SubmittedAt.IsZero() {
		j.SubmittedAt = time.Now()
	}
	j.FinishedAt = time.Now()
	s.stats.failed++
	s.jobs[j.ID] = j
	s.retain(j)
	if s.store != nil {
		s.store.DeleteCheckpoint(j.ID)
	}
	return false
}

// jobContext builds a job's lifecycle context: cancellable, and bounded by
// the spec's wall-clock deadline measured from the submission time — which
// after a recovery is the ORIGINAL submission, so a deadline cannot be
// laundered by crashing.
func jobContext(submitted time.Time, deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline > 0 {
		return context.WithDeadline(context.Background(), submitted.Add(deadline))
	}
	return context.WithCancel(context.Background())
}

// holdTenantLocked charges a job against its tenant's active-job count.
// Callers hold mu (or run single-threaded at startup).
func (s *Server) holdTenantLocked(j *Job) {
	if j.Tenant == "" || j.tenantHeld {
		return
	}
	if s.tenants == nil {
		s.tenants = make(map[string]int)
	}
	s.tenants[j.Tenant]++
	j.tenantHeld = true
}

// releaseTenantLocked returns a job's tenant slot at its terminal
// transition, exactly once. Callers hold mu.
func (s *Server) releaseTenantLocked(j *Job) {
	if !j.tenantHeld {
		return
	}
	j.tenantHeld = false
	if n := s.tenants[j.Tenant] - 1; n > 0 {
		s.tenants[j.Tenant] = n
	} else {
		delete(s.tenants, j.Tenant)
	}
}

// persistCheckpoint runs in the engine's Checkpoint callback at every
// completed shard of a plain streamed job: it keeps the latest RunState on
// the job (the in-process retry resume point) and publishes it durably as
// a sidecar next to the artifacts, then journals the boundary. Child jobs
// never checkpoint (a frozen-prefix run cannot also resume — Run rejects
// Frozen with Resume); persistence failures degrade recovery to restart, never the run.
func (s *Server) persistCheckpoint(job *Job, st picasso.RunState) {
	if job.Append != nil || job.Refine != nil {
		return
	}
	rs := st
	s.mu.Lock()
	job.Resume = &rs
	s.mu.Unlock()
	if s.store == nil {
		return
	}
	if err := faultpoint.Hit(FaultCheckpointWrite, st.Shards); err != nil {
		return
	}
	blob, err := json.Marshal(&rs)
	if err != nil {
		return
	}
	if err := s.store.PutCheckpoint(job.Canonical, blob); err != nil {
		return
	}
	s.journalAppend(journal.Record{ID: job.ID, Event: journal.EventCheckpoint,
		Shard: st.Shards, Next: st.NextStart})
}

// retryable decides whether a failed attempt gets another one: only
// transient errors (not cancellation, not a blown deadline, not a dead
// context) and only while the spec's retry budget lasts.
func (s *Server) retryable(job *Job, err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if job.ctx.Err() != nil {
		return false
	}
	s.mu.Lock()
	attempts := job.Attempts
	s.mu.Unlock()
	return attempts <= job.Spec.Retries
}

// backoff sleeps the exponential delay before retry attempt number
// `attempt` (the second attempt waits one base interval, each further
// attempt doubles it, capped at 30s), interruptible by the job context.
// Returns the context's error when the wait was cut short.
func (s *Server) backoff(job *Job, attempt int) error {
	d := s.cfg.RetryBackoff
	for i := 2; i < attempt && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-job.ctx.Done():
		return job.ctx.Err()
	}
}

// retryAfterSeconds derives an honest Retry-After for backpressure
// rejections: the queue's expected drain time under the observed average
// job duration, clamped to [1, 120]. A fresh server with no completions
// yet assumes one second per job.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	avg := s.avgRunMS
	workers := s.cfg.Workers
	s.mu.Unlock()
	if avg <= 0 {
		avg = 1000
	}
	queued := len(s.queue)
	secs := int((float64(queued+1)*avg/float64(workers) + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if secs > 120 {
		secs = 120
	}
	return secs
}

// faultBuilder wraps a job's real conflict builder so FaultBuilderBuild
// can inject an error on the k-th build. Injected builders force the
// engine's sequential lane schedule — acceptable for the fault tests that
// arm this.
type faultBuilder struct {
	inner  backend.ConflictBuilder
	builds int
}

func (f *faultBuilder) Name() string { return "fault:" + f.inner.Name() }

func (f *faultBuilder) Build(ctx context.Context, o backend.EdgeOracle, lists backend.Lists, tr *memtrack.Tracker) (*backend.ConflictGraph, backend.Stats, error) {
	f.builds++
	if err := faultpoint.Hit(FaultBuilderBuild, f.builds); err != nil {
		return nil, backend.Stats{}, err
	}
	return f.inner.Build(ctx, o, lists, tr)
}
