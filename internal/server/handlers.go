package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"picasso"
	"picasso/internal/jobspec"
	"picasso/internal/workload"
)

// maxBodyBytes bounds a submission body. Inline string payloads dominate:
// 16 MiB holds ~half a million 30-qubit strings, far past the admission
// limit on job size.
const maxBodyBytes = 16 << 20

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/jobs/{id}/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/jobs/{id}/refine", s.handleRefine)
	s.mux.HandleFunc("GET /v1/jobs/{id}/groups", s.handleGroups)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("GET /v1/instances", s.handleInstances)
}

// handleSubmit accepts a jobspec.Spec body: 202 for newly queued work, 200
// when the spec deduplicated onto an existing job, 429 for backpressure
// (full queue, or the X-Tenant header's quota), 503 when the server is
// draining — the rejections carry a typed code and an honest Retry-After.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobspec.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	// Portfolio-block validation is typed so clients can branch on it: a
	// non-positive entrant count (pre-Normalize — Normalize rejects it with
	// the same message) or a width past this server's cap.
	if spec.Portfolio != nil && spec.Portfolio.Entrants <= 0 {
		writeErrorCode(w, http.StatusBadRequest, ErrCodeBadPortfolio,
			fmt.Sprintf("portfolio entrants %d must be positive", spec.Portfolio.Entrants))
		return
	}
	if spec.Portfolio != nil && spec.Portfolio.Entrants > s.cfg.MaxEntrants {
		writeErrorCode(w, http.StatusBadRequest, ErrCodeBadPortfolio,
			fmt.Sprintf("portfolio entrants %d exceed this server's cap of %d", spec.Portfolio.Entrants, s.cfg.MaxEntrants))
		return
	}
	if err := spec.Normalize(); err != nil {
		if errors.Is(err, jobspec.ErrBadInput) {
			// The input-source selection itself is wrong (zero or several
			// kinds set): typed, so clients distinguish a miscomposed
			// request from a mistyped value.
			writeErrorCode(w, http.StatusBadRequest, ErrCodeBadInput, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := servableBackend(spec.Backend); err != nil {
		// The name is a known backend (Normalize checked), but this service
		// wires no simulated devices into jobs: reject at submission rather
		// than queue work that is doomed to fail.
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("backend %q cannot run in this service: %v", spec.Backend, err))
		return
	}
	if n := spec.NumVertices(); n > s.cfg.MaxVertices {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("job size %d exceeds the server limit of %d vertices", n, s.cfg.MaxVertices))
		return
	}

	job, hit, err := s.SubmitTenant(spec, r.Header.Get("X-Tenant"))
	s.respondSubmit(w, job, hit, err)
}

// respondSubmit writes the shared submission response: typed backpressure
// rejections with an honest Retry-After (429 "queue_full"/"tenant_quota",
// 503 "draining"), 202 for newly queued work, 200 for a dedup cache hit.
func (s *Server) respondSubmit(w http.ResponseWriter, job *Job, hit bool, err error) {
	if err != nil {
		retryAfter := func() {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			retryAfter()
			writeErrorCode(w, http.StatusTooManyRequests, ErrCodeQueueFull, err.Error())
		case errors.Is(err, ErrTenantQuota):
			retryAfter()
			writeErrorCode(w, http.StatusTooManyRequests, ErrCodeTenantQuota, err.Error())
		case errors.Is(err, ErrClosed):
			retryAfter()
			writeErrorCode(w, http.StatusServiceUnavailable, ErrCodeDraining, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.mu.Lock()
	resp := SubmitResponse{ID: job.ID, State: job.State, CacheHit: hit, Hits: job.Hits}
	s.mu.Unlock()
	status := http.StatusAccepted
	if hit {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// doneParent resolves the parent job of a child-submission endpoint
// (append, refine) and enforces the done-state gate: a missing parent or a
// terminal-but-not-successful one (cancelled, failed) gets its typed error
// written here and nil returned — never a child job that would replay empty
// groups. A parent absent from the job table — evicted, or finished by an
// earlier process — is resolved from the disk tier before 404ing: a child
// job can outlive its parent's stay in memory as long as the artifact
// survives. A returned parent is done: its Spec, Result, Groups and lineage
// fields are write-once before that state and safe to read lock-free.
func (s *Server) doneParent(w http.ResponseWriter, id, kind, verb string) *Job {
	s.mu.Lock()
	parent, ok := s.jobs[id]
	var state string
	if ok {
		s.touch(parent)
		state = parent.State
	}
	s.mu.Unlock()
	if !ok {
		if parent = s.rehydrateByID(id); parent != nil {
			ok, state = true, parent.State
		}
	}
	switch {
	case !ok:
		writeErrorCode(w, http.StatusNotFound, ErrCodeUnknownJob, "unknown job id")
		return nil
	case state != StateDone:
		writeErrorCode(w, http.StatusConflict, ErrCodeParentNotDone,
			fmt.Sprintf("%s parent is %s; only done jobs can be %s", kind, state, verb))
		return nil
	}
	return parent
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCancel stops a queued or running job. A queued job is dropped
// immediately (200, state "cancelled"); a running job has its context
// cancelled and stops at the engine's next stage boundary (202, state still
// "running" — poll /v1/jobs/{id} for the terminal "cancelled"). Jobs that
// already finished answer 409: their results stay available.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.Cancel(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job id")
	case errors.Is(err, ErrJobFinished):
		writeError(w, http.StatusConflict, fmt.Sprintf("job is already %s", state))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	case state == StateCancelled:
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": state})
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": state})
	}
}

// handleAppend submits an append job: the request's Pauli strings are
// colored against the frozen grouping of the finished parent job, old
// groups untouched. Requires a done parent with a Pauli input (instance or
// strings); answers like handleSubmit (202 new, 200 dedup).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req AppendRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding append request: %v", err))
		return
	}
	if len(req.Strings) == 0 {
		writeError(w, http.StatusBadRequest, "append needs at least one string")
		return
	}
	for i, str := range req.Strings {
		t := strings.TrimSpace(str)
		if t == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("appended string %d is empty", i))
			return
		}
		req.Strings[i] = t
	}

	parent := s.doneParent(w, id, "append", "extended")
	if parent == nil {
		return
	}
	if parent.Spec.Instance == "" && len(parent.Spec.Strings) == 0 {
		writeErrorCode(w, http.StatusBadRequest, ErrCodeParentNotPauli, "append parent is not a Pauli job")
		return
	}
	parentVertices := 0
	if parent.Result != nil {
		parentVertices = parent.Result.Vertices
	}
	if n := parentVertices + len(req.Strings); n > s.cfg.MaxVertices {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("appended job size %d exceeds the server limit of %d vertices", n, s.cfg.MaxVertices))
		return
	}

	job, hit, err := s.SubmitAppend(parent, req.Strings)
	s.respondSubmit(w, job, hit, err)
}

// handleRefine submits a refine job: the palette-refinement pass runs over
// the frozen grouping of the finished parent job (any input kind — random
// oracles refine too), publishing the compacted grouping as a new job while
// the parent's own results stay served unchanged. Requires a done parent —
// a cancelled or failed parent answers a typed 409, exactly like append.
// Cancellable while running at every engine stage boundary; answers like
// handleSubmit (202 new, 200 dedup).
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req RefineRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		// An empty body is a refinement with engine defaults.
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding refine request: %v", err))
		return
	}
	if err := req.Normalize(); err != nil {
		// The spec refine block's rules verbatim; the canonical budget
		// spelling it leaves behind keys the dedup.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	parent := s.doneParent(w, id, "refine", "refined")
	if parent == nil {
		return
	}
	job, hit, err := s.SubmitRefine(parent, req)
	s.respondSubmit(w, job, hit, err)
}

// handleGroups serves a finished job's color classes. A job that exists
// but has not finished answers 409 so pollers can distinguish "not yet"
// from "never heard of it".
func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	state, errMsg, groups := job.State, job.Err, job.Groups
	s.touch(job)
	s.mu.Unlock()

	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, GroupsResponse{ID: id, NumGroups: len(groups), Groups: groups})
	case StateFailed:
		writeError(w, http.StatusConflict, fmt.Sprintf("job failed: %s", errMsg))
	case StateInterrupted:
		writeError(w, http.StatusConflict,
			"job was interrupted by shutdown; it resumes when a server restarts on the same artifact dir")
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; poll /v1/jobs/%s until done", state, id))
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleBackends advertises only the backends this service can actually
// run — every backend name minus the device-backed ones, which have no
// simulated device here.
func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, b := range picasso.Backends() {
		if servableBackend(b) == nil {
			names = append(names, b)
		}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"backends": names})
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"instances": workload.SortedNames()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a fully materialized value cannot fail halfway in a way we
	// could still report: the status line is already out.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// writeErrorCode is writeError with a stable machine-readable code, used by
// the job-control endpoints whose callers branch on the failure kind.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}
