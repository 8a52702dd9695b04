package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"picasso"
	"picasso/internal/artifact"
	"picasso/internal/jobspec"
	"picasso/internal/journal"
	"picasso/internal/server"
)

// serveMix drives the coloring service in process through its HTTP handler:
// an open loop of small jobs at a fixed, seeded Poisson arrival rate below
// the two workers' capacity, including exact duplicates and append/refine
// children of finished jobs; then a restart on the same artifact directory
// (journal replay) and a resubmitted sample answered from disk.
type serveMix struct {
	cfg      config
	reqs     []*request
	resubmit []int // indices of phase-1 requests resubmitted after restart
	sizes    serveSizes
	dups     int // duplicates scheduled so far: picks the next one's kind
}

// serveSizes scales the job mix; tiny runs shrink every input.
type serveSizes struct {
	strings, qubits, appendStrings int
	random, budgeted               string // jobspec "n:density"
	budget                         string
	graphN, graphDegree            int
	minAge                         time.Duration // how long before a child its parent is due
}

var fullSizes = serveSizes{
	strings: 800, qubits: 16, appendStrings: 40,
	random: "1200:0.5", budgeted: "2000:0.5", budget: "512KiB",
	graphN: 1500, graphDegree: 20, minAge: time.Second,
}

var tinySizes = serveSizes{
	strings: 60, qubits: 8, appendStrings: 8,
	random: "200:0.5", budgeted: "400:0.5", budget: "16KiB",
	graphN: 120, graphDegree: 6, minAge: 200 * time.Millisecond,
}

const (
	serveRate    = 16.0 // phase-1 arrivals per second
	resubmitRate = 100.0
	resubmitMax  = 40
	serveWorkers = 2
	restartReps  = 9
	pollInterval = 2 * time.Millisecond
	// passSlack is how long a pass may run past its schedule before it
	// counts as failed.
	passSlack = 60 * time.Second
)

// mixPattern is one block of arrivals: one request of each kind, in a seeded
// order. No recorded traffic exists to weight the kinds by, so each gets an
// equal share. Duplicates cycle through the fresh kinds, appends extend
// strings jobs and refines refine random-graph jobs, so the work a run
// carries does not drift with the seed.
var mixPattern = []string{
	"strings", "random", "dimacs", "equitable", "budgeted",
	"duplicate", "append", "refine",
}

// freshKinds are the kinds a duplicate repeats, in turn.
var freshKinds = []string{"strings", "random", "dimacs", "equitable", "budgeted"}

// request is one scheduled call and what came of it.
type request struct {
	idx    int
	kind   string
	due    time.Duration // offset from the phase start
	body   []byte
	spec   jobspec.Spec // fresh jobs: the submitted spec (children: the parent's)
	parent int          // duplicate/append/refine: the earlier request, else -1
	extra  []string     // append: the appended strings

	// Filled in by the run.
	id         string
	hit        bool // answered done at submission (memory or disk)
	created    bool // 202: new work
	sent, resp time.Time
	done       time.Time
	failed     string
	finished   chan struct{} // closed once the request is terminal
	groups     [][]int
	status     server.StatusResponse
}

func newServeMix(cfg config) *serveMix {
	w := &serveMix{cfg: cfg, sizes: fullSizes}
	if cfg.tiny {
		w.sizes = tinySizes
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// Poisson arrivals conditioned on n of them in the run length: sorted
	// exponential sums rescaled so the last one is due at the end.
	n := int(serveRate*cfg.seconds + 0.5)
	dues := make([]float64, n)
	sum := 0.0
	for i := range dues {
		sum += rng.ExpFloat64()
		dues[i] = sum
	}
	var order []string
	for i := 0; i < n; i++ {
		if len(order) == 0 {
			order = slices.Clone(mixPattern)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		kind := order[0]
		order = order[1:]
		due := time.Duration(dues[i] / sum * cfg.seconds * float64(time.Second))
		w.reqs = append(w.reqs, w.makeRequest(rng, i, kind, due))
	}
	for _, r := range w.reqs {
		if r.parent < 0 && len(w.resubmit) < resubmitMax && r.idx%4 == 0 {
			w.resubmit = append(w.resubmit, r.idx)
		}
	}
	return w
}

// makeRequest builds request i of the given kind. A child or duplicate whose
// kind has no eligible earlier request (one due at least minAge before)
// falls back to a fresh strings job.
func (w *serveMix) makeRequest(rng *rand.Rand, i int, kind string, due time.Duration) *request {
	r := &request{idx: i, kind: kind, due: due, parent: -1}
	eligible := func(ok func(*request) bool) int {
		var cands []int
		for _, p := range w.reqs {
			if p.parent < 0 && due-p.due >= w.sizes.minAge && ok(p) {
				cands = append(cands, p.idx)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.Intn(len(cands))]
	}
	switch kind {
	case "duplicate":
		want := freshKinds[w.dups%len(freshKinds)]
		w.dups++
		r.parent = eligible(func(p *request) bool { return p.kind == want })
	case "append":
		r.parent = eligible(func(p *request) bool { return p.kind == "strings" })
	case "refine":
		r.parent = eligible(func(p *request) bool { return p.kind == "random" })
	}
	if kind != "strings" && r.parent < 0 && (kind == "duplicate" || kind == "append" || kind == "refine") {
		r.kind, kind = "strings", "strings"
	}
	seed := 1 + rng.Int63n(1<<31)
	switch kind {
	case "strings":
		r.spec = jobspec.Spec{Strings: randomPauli(rng, w.sizes.strings, w.sizes.qubits), Seed: seed}
	case "random":
		r.spec = jobspec.Spec{Random: w.sizes.random, Seed: seed}
	case "dimacs", "equitable":
		r.spec = jobspec.Spec{GraphData: randomDIMACS(rng, w.sizes.graphN, w.sizes.graphDegree), Seed: seed}
		if kind == "equitable" {
			r.spec.Variant = "equitable"
		}
	case "budgeted":
		r.spec = jobspec.Spec{Random: w.sizes.budgeted, Budget: w.sizes.budget, Seed: seed}
	case "duplicate":
		p := w.reqs[r.parent]
		r.spec, r.body = p.spec, p.body
		return r
	case "append":
		r.spec = w.reqs[r.parent].spec
		r.extra = randomPauli(rng, w.sizes.appendStrings, w.sizes.qubits)
		r.body = mustJSON(server.AppendRequest{Strings: r.extra})
		return r
	case "refine":
		r.spec = w.reqs[r.parent].spec
		r.body = mustJSON(server.RefineRequest{Rounds: 4})
		return r
	}
	r.body = mustJSON(r.spec)
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding request body: %v", err)) // plain structs always encode
	}
	return b
}

func randomPauli(rng *rand.Rand, n, qubits int) []string {
	out := make([]string, n)
	b := make([]byte, qubits)
	for i := range out {
		for q := range b {
			b[q] = "IXYZ"[rng.Intn(4)]
		}
		out[i] = string(b)
	}
	return out
}

// randomDIMACS writes a random graph in DIMACS .col form: every vertex picks
// degree/2 random partners (duplicates and self loops skipped).
func randomDIMACS(rng *rand.Rand, n, degree int) string {
	type edge struct{ u, v int }
	seen := map[edge]bool{}
	var edges []edge
	for u := 0; u < n; u++ {
		for k := 0; k < degree/2; k++ {
			v := rng.Intn(n)
			a, b := min(u, v), max(u, v)
			if a == b || seen[edge{a, b}] {
				continue
			}
			seen[edge{a, b}] = true
			edges = append(edges, edge{a, b})
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "c random graph\np edge %d %d\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&sb, "e %d %d\n", e.u+1, e.v+1)
	}
	return sb.String()
}

// call sends one request through the handler and returns the recorder.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// pass is one run of the whole schedule against a fresh artifact directory.
type pass struct {
	w        *serveMix
	dir      string
	srv      *server.Server
	rec      *recorder
	reqs     []*request // this pass's copies of the schedule
	start    time.Time
	wall     time.Duration // phase-1 wall: start to the last request done
	lagMax   time.Duration
	setups   []float64
	stats    server.StatsResponse
	hits     []float64 // hit latencies (memory, then disk)
	jobs     []float64 // latencies of requests that waited for a worker
	kindJobs map[string][]float64
	busy     time.Duration // Σ finished − started over jobs that ran
	groupsAt time.Duration
	o        *outcome
}

func runServe(ctx context.Context, cfg config, w *serveMix) *outcome {
	o := newOutcome()
	if !cfg.trace {
		p := w.runPass(ctx, o, "untraced", nil)
		if p == nil {
			return o
		}
		p.reportEndToEnd()
		return o
	}
	a := w.runPass(ctx, o, "untraced", nil)
	if a == nil {
		return o
	}
	rec := newRecorder()
	o.spans = rec
	b := w.runPass(ctx, o, "traced", rec)
	if b == nil {
		return o
	}
	for i := range a.reqs {
		if !slices.EqualFunc(a.reqs[i].groups, b.reqs[i].groups, slices.Equal[[]int]) {
			o.fail("request %d: traced groups differ from the untraced ones", i)
		}
	}
	b.reportLayers(a)
	return o
}

// runPass runs phase 1, verification, the restarts and phase 2 in a fresh
// artifact directory, which it removes afterwards. It returns nil when the
// pass could not complete.
func (w *serveMix) runPass(ctx context.Context, o *outcome, name string, rec *recorder) *pass {
	ctx, cancel := context.WithTimeout(ctx, w.cfg.runLength()+passSlack)
	defer cancel()
	dir := filepath.Join(w.cfg.workDir, fmt.Sprintf("serve-%s-seed%d-%d", name, w.cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		o.fail("clearing %s: %v", dir, err)
		return nil
	}
	defer os.RemoveAll(dir)
	p := &pass{w: w, dir: dir, rec: rec, o: o, kindJobs: map[string][]float64{}}
	for _, r := range w.reqs {
		c := *r
		c.finished = make(chan struct{})
		p.reqs = append(p.reqs, &c)
	}
	srv, err := server.New(p.serverConfig())
	if err != nil {
		o.fail("starting server: %v", err)
		return nil
	}
	p.srv = srv
	if !p.phase1(ctx) {
		srv.Close()
		return nil
	}
	p.collect()
	if !p.restart() {
		return nil
	}
	defer p.srv.Close()
	p.phase2(ctx)
	return p
}

func (p *pass) serverConfig() server.Config {
	return server.Config{Workers: serveWorkers, ArtifactDir: p.dir}
}

// phase1 runs the open loop: this goroutine submits at each due time, one
// poller goroutine watches outstanding jobs. Latency runs from the due time.
func (p *pass) phase1(ctx context.Context) bool {
	var mu sync.Mutex
	var outstanding []*request
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			mu.Lock()
			batch := slices.Clone(outstanding)
			mu.Unlock()
			for _, r := range batch {
				if p.poll(r) {
					mu.Lock()
					outstanding = slices.DeleteFunc(outstanding, func(x *request) bool { return x == r })
					mu.Unlock()
				}
			}
		}
	}()

	p.start = time.Now()
	for _, r := range p.reqs {
		if wait := time.Until(p.start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		if r.parent >= 0 && r.kind != "duplicate" {
			select {
			case <-p.reqs[r.parent].finished:
			case <-ctx.Done():
			}
			if p.reqs[r.parent].failed != "" || ctx.Err() != nil {
				p.finish(r, time.Now(), "parent did not finish")
				continue
			}
		}
		if p.submit(r) {
			mu.Lock()
			outstanding = append(outstanding, r)
			mu.Unlock()
		}
	}
	ok := true
	for _, r := range p.reqs {
		select {
		case <-r.finished:
		case <-ctx.Done():
			ok = false
		}
		if !ok {
			break
		}
	}
	close(stop)
	wg.Wait()
	if !ok {
		p.o.fail("phase 1 did not finish: %v", ctx.Err())
		return false
	}
	for _, r := range p.reqs {
		p.wall = max(p.wall, r.done.Sub(p.start))
	}
	return true
}

// submit sends r and reports whether it now waits for a worker.
func (p *pass) submit(r *request) bool {
	path := "/v1/jobs"
	switch r.kind {
	case "append":
		path = "/v1/jobs/" + p.reqs[r.parent].id + "/append"
	case "refine":
		path = "/v1/jobs/" + p.reqs[r.parent].id + "/refine"
	}
	r.sent = time.Now()
	p.lagMax = max(p.lagMax, r.sent.Sub(p.start.Add(r.due)))
	rr := call(p.srv, http.MethodPost, path, r.body)
	r.resp = time.Now()
	if rr.Code != http.StatusOK && rr.Code != http.StatusAccepted {
		p.finish(r, r.resp, fmt.Sprintf("submit answered %d: %s", rr.Code, strings.TrimSpace(rr.Body.String())))
		return false
	}
	var sr server.SubmitResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &sr); err != nil {
		p.finish(r, r.resp, fmt.Sprintf("decoding submit response: %v", err))
		return false
	}
	r.id, r.created = sr.ID, rr.Code == http.StatusAccepted
	if sr.State == server.StateDone {
		r.hit = true
		p.finish(r, r.resp, "")
		return false
	}
	return true
}

// poll checks r's job once and reports whether r is now terminal.
func (p *pass) poll(r *request) bool {
	rr := call(p.srv, http.MethodGet, "/v1/jobs/"+r.id, nil)
	now := time.Now()
	var st server.StatusResponse
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &st) != nil {
		p.finish(r, now, fmt.Sprintf("status answered %d", rr.Code))
		return true
	}
	switch st.State {
	case server.StateDone:
		p.finish(r, now, "")
	case server.StateFailed, server.StateCancelled, server.StateInterrupted:
		p.finish(r, now, fmt.Sprintf("job %s: %s", st.State, st.Error))
	default:
		return false
	}
	return true
}

func (p *pass) finish(r *request, at time.Time, failure string) {
	r.done, r.failed = at, failure
	close(r.finished)
}

// collect reads back, outside the timed loop, every request's status and
// groups, verifies the groups, and records the latencies and the server
// stage spans.
func (p *pass) collect() {
	p.o.attempted += len(p.reqs)
	for _, r := range p.reqs {
		if r.failed != "" {
			p.o.fail("request %d (%s): %s", r.idx, r.kind, r.failed)
			continue
		}
		lat := r.done.Sub(p.start.Add(r.due)).Seconds()
		if r.hit {
			p.hits = append(p.hits, lat)
		} else {
			p.jobs = append(p.jobs, lat)
			p.kindJobs[r.kind] = append(p.kindJobs[r.kind], lat)
		}
		rr := call(p.srv, http.MethodGet, "/v1/jobs/"+r.id, nil)
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &r.status) != nil || r.status.Result == nil {
			p.o.fail("request %d: status answered %d", r.idx, rr.Code)
			continue
		}
		t0 := time.Now()
		gr := call(p.srv, http.MethodGet, "/v1/jobs/"+r.id+"/groups", nil)
		p.groupsAt += time.Since(t0)
		var g server.GroupsResponse
		if gr.Code != http.StatusOK || json.Unmarshal(gr.Body.Bytes(), &g) != nil {
			p.o.fail("request %d: groups answered %d", r.idx, gr.Code)
			continue
		}
		r.groups = g.Groups
		if _, started, finished, ok := stageTimes(r.status); ok && r.created {
			p.busy += finished.Sub(started)
		}
		if err := p.verify(r); err != nil {
			p.o.fail("request %d (%s): %v", r.idx, r.kind, err)
		}
		p.spanRequest(r)
	}
	if rr := call(p.srv, http.MethodGet, "/v1/stats", nil); rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &p.stats) != nil {
		p.o.fail("stats answered %d", rr.Code)
	}
}

// spanRequest records r's request span and its stages: generator lag and
// the submit call from the client's clock, then (for new work) queue wait,
// the pre-run step, the run and the lag until the client saw it done, from
// the status timestamps.
func (p *pass) spanRequest(r *request) {
	if p.rec == nil {
		return
	}
	due := p.start.Add(r.due)
	rs := p.rec.add("request", due, r.done, -1, r.id)
	p.rec.add("loadgen.lag", due, r.sent, rs, r.id)
	p.rec.add("server.admit", r.sent, r.resp, rs, r.id)
	if !r.created {
		return
	}
	submitted, started, finished, ok := stageTimes(r.status)
	if !ok {
		return
	}
	runStart := finished.Add(-time.Duration(r.status.Result.ElapsedMS * float64(time.Millisecond)))
	p.rec.add("server.queue_wait", submitted, started, rs, r.id)
	p.rec.add("server.persist", started, runStart, rs, r.id)
	p.rec.add("server.run", runStart, finished, rs, r.id)
	p.rec.add("server.done_lag", finished, r.done, rs, r.id)
}

func stageTimes(st server.StatusResponse) (submitted, started, finished time.Time, ok bool) {
	var err1, err2, err3 error
	submitted, err1 = time.Parse(time.RFC3339Nano, st.SubmittedAt)
	started, err2 = time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, err3 = time.Parse(time.RFC3339Nano, st.FinishedAt)
	return submitted, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// verify checks r's groups: they partition the input, color it properly
// (a valid grouping for Pauli inputs), balance classes for equitable jobs,
// and keep a duplicate's answer identical to its original's.
func (p *pass) verify(r *request) error {
	spec := r.spec
	if err := spec.Normalize(); err != nil {
		return err
	}
	oracle, set, err := spec.BuildInput()
	if err != nil {
		return err
	}
	if r.kind == "append" {
		strs := append(slices.Clone(spec.Strings), r.extra...)
		if set, err = picasso.ParsePauliStrings(strs); err != nil {
			return err
		}
	}
	in := input{set: set, oracle: oracle}
	n := in.vertices()
	if err := coverCheck(r.groups, n); err != nil {
		return err
	}
	c := make(picasso.Coloring, n)
	for color, g := range r.groups {
		for _, v := range g {
			c[v] = int32(color)
		}
	}
	if err := verifyInput(in, c); err != nil {
		return err
	}
	if spec.Variant == "equitable" {
		if err := picasso.VerifyEquitable(c); err != nil {
			return err
		}
	}
	if r.kind == "duplicate" {
		if orig := p.reqs[r.parent]; !slices.EqualFunc(orig.groups, r.groups, slices.Equal[[]int]) {
			return fmt.Errorf("duplicate answered different groups than request %d", orig.idx)
		}
	}
	return nil
}

// restart closes the server and opens it again on the same directory
// several times, each time replaying the same journal; setup_s is the
// median open time. The last server stays up for phase 2.
func (p *pass) restart() bool {
	p.srv.Close()
	jpath := filepath.Join(p.dir, "journal.wal")
	saved, err := os.ReadFile(jpath)
	if err != nil {
		p.o.fail("reading journal: %v", err)
		return false
	}
	for i := 0; i < restartReps; i++ {
		if err := os.WriteFile(jpath, saved, 0o644); err != nil {
			p.o.fail("restoring journal: %v", err)
			return false
		}
		t0 := time.Now()
		srv, err := server.New(p.serverConfig())
		if err != nil {
			p.o.fail("restarting server: %v", err)
			return false
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if i < restartReps-1 {
			srv.Close()
		} else {
			p.srv = srv
		}
	}
	if p.rec != nil {
		p.measureStores(saved)
	}
	return true
}

// measureStores times the disk tier outside the server: loading every
// persisted artifact by address, and replaying a copy of the journal.
func (p *pass) measureStores(journalBytes []byte) {
	store, err := artifact.NewStore(p.dir)
	if err != nil {
		p.o.fail("opening artifact store: %v", err)
		return
	}
	ls := p.rec.begin("artifact.load", -1, "")
	var loadBytes int64
	seen := map[string]bool{}
	for _, r := range p.reqs {
		if r.id == "" || seen[r.id] {
			continue
		}
		seen[r.id] = true
		if _, err := store.GetAddress(r.id); err != nil {
			p.o.fail("loading artifact %s: %v", r.id, err)
			continue
		}
		if fi, err := os.Stat(store.Path(r.id)); err == nil {
			loadBytes += fi.Size()
		}
	}
	p.rec.end(ls)
	p.o.metrics["artifact.bytes"] = float64(loadBytes)

	jcopy := filepath.Join(p.dir, "journal-replay.wal")
	if err := os.WriteFile(jcopy, journalBytes, 0o644); err != nil {
		p.o.fail("copying journal: %v", err)
		return
	}
	js := p.rec.begin("journal.replay", -1, "")
	j, recs, err := journal.Open(jcopy)
	p.rec.end(js)
	if err != nil {
		p.o.fail("replaying journal: %v", err)
		return
	}
	j.Close()
	p.o.metrics["journal.records"] = float64(len(recs))
}

// phase2 resubmits a sample of phase 1's jobs to the restarted server: each
// must be answered done from disk with the groups phase 1 published.
func (p *pass) phase2(ctx context.Context) {
	start := time.Now()
	for k, idx := range p.resubmitIdx() {
		orig := p.reqs[idx]
		due := start.Add(time.Duration(float64(k) / resubmitRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if ctx.Err() != nil {
			p.o.fail("phase 2: %v", ctx.Err())
			return
		}
		p.o.attempted++
		rr := call(p.srv, http.MethodPost, "/v1/jobs", orig.body)
		lat := time.Since(due).Seconds()
		var sr server.SubmitResponse
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &sr) != nil || sr.State != server.StateDone {
			p.o.fail("resubmitted request %d answered %d, state %q", idx, rr.Code, sr.State)
			continue
		}
		p.hits = append(p.hits, lat)
		gr := call(p.srv, http.MethodGet, "/v1/jobs/"+sr.ID+"/groups", nil)
		var g server.GroupsResponse
		if gr.Code != http.StatusOK || json.Unmarshal(gr.Body.Bytes(), &g) != nil ||
			!slices.EqualFunc(g.Groups, orig.groups, slices.Equal[[]int]) {
			p.o.fail("resubmitted request %d: groups differ from phase 1", idx)
		}
	}
	var st server.StatsResponse
	if rr := call(p.srv, http.MethodGet, "/v1/stats", nil); rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &st) == nil {
		p.stats.DiskHits += st.DiskHits
		p.stats.CacheHits += st.CacheHits
		p.stats.Rejected += st.Rejected
	}
}

// resubmitIdx is the phase-2 sample among requests that succeeded.
func (p *pass) resubmitIdx() []int {
	var out []int
	for _, idx := range p.w.resubmit {
		if p.reqs[idx].failed == "" && p.reqs[idx].groups != nil {
			out = append(out, idx)
		}
	}
	return out
}

// reportEndToEnd fills the untraced run's metrics.
func (p *pass) reportEndToEnd() {
	m := p.o.metrics
	m["setup_s"] = median(p.setups)
	vertices, colors, ran := 0, 0, 0
	var peak int64
	for _, r := range p.reqs {
		if r.status.Result == nil {
			continue
		}
		colors += r.status.Result.NumGroups
		peak = max(peak, r.status.Result.PeakBytes)
		if r.created {
			ran++
			vertices += r.status.Result.Vertices
		}
	}
	// Throughput is per second of the workers' busy time, not of the
	// run's wall: the open loop offers the same load whatever the server's
	// speed, so jobs over wall time would read the arrival rate.
	busyPerWorker := p.busy.Seconds() / serveWorkers
	m["vertices_per_s"] = ratio(float64(vertices), busyPerWorker)
	m["jobs_per_s"] = ratio(float64(ran), busyPerWorker)
	m["job_s_p50"] = median(p.jobs)
	m["colors"] = float64(colors)
	m["tracked_peak_bytes"] = float64(peak)
	p.o.extras = append(p.o.extras,
		count("job_samples", len(p.jobs)),
		tailExtra("job_s_p90", p.jobs),
	)
	for _, kind := range mixPattern {
		lats := p.kindJobs[kind]
		p.o.extras = append(p.o.extras,
			extra{name: "job_s_p50." + kind, unit: "s", value: median(lats), ok: len(lats) > 0, note: "n/a: no request of this kind waited for a worker"},
			count("job_samples."+kind, len(lats)))
	}
	p.o.extras = append(p.o.extras,
		count("hit_samples", len(p.hits)),
		extra{name: "hit_s_p50", unit: "s", value: median(p.hits), ok: len(p.hits) > 0, note: "n/a: no hits"},
		extra{name: "loadgen.lag_s_max", unit: "s", value: p.lagMax.Seconds(), ok: true},
		extra{name: "workers_busy_frac", unit: "ratio", value: ratio(busyPerWorker, p.wall.Seconds()), ok: true},
	)
}

// reportLayers fills the traced run's per-layer metrics; untraced is the
// same schedule's untraced pass, for the tracing overhead.
func (p *pass) reportLayers(untraced *pass) {
	m := p.o.metrics
	rec := p.rec
	var iters, shards, rounds, exceeded int
	var edges, pairs int64
	for _, r := range p.reqs {
		if !r.created || r.status.Result == nil {
			continue
		}
		res := r.status.Result
		iters += res.Iterations
		shards += res.Shards
		rounds += res.RefineRounds
		edges += res.TotalConflictEdges
		pairs += res.PairsTested
		if res.BudgetExceeded {
			exceeded++
		}
	}
	m["core.iterations"] = float64(iters)
	m["core.shards"] = float64(shards)
	m["core.refine_rounds"] = float64(rounds)
	m["core.conflict_edges"] = float64(edges)
	m["backend.pairs_tested"] = float64(pairs)
	m["memtrack.budget_exceeded"] = float64(exceeded)

	p.measureClientLayers()
	m["jobspec.normalize_s"] = rec.total("jobspec.normalize", "").Seconds()
	m["pauli.parse_s"] = rec.total("pauli.parse", "").Seconds()
	m["graph.parse_s"] = rec.total("graph.parse", "").Seconds()
	m["server.admit_s"] = p.createdTotal("server.admit").Seconds()
	m["server.queue_wait_s"] = rec.total("server.queue_wait", "").Seconds()
	m["server.run_s"] = rec.total("server.run", "").Seconds()
	m["server.persist_s"] = rec.total("server.persist", "").Seconds()
	m["server.done_lag_s"] = rec.total("server.done_lag", "").Seconds()
	m["server.groups_s"] = p.groupsAt.Seconds()
	m["server.cache_hits"] = float64(p.stats.CacheHits)
	m["server.disk_hits"] = float64(p.stats.DiskHits)
	m["server.rejected"] = float64(p.stats.Rejected)
	m["artifact.load_s"] = rec.total("artifact.load", "").Seconds()
	m["journal.replay_s"] = rec.total("journal.replay", "").Seconds()
	m["loadgen.lag_s_max"] = p.lagMax.Seconds()
	m["trace.overhead_s"] = (p.wall - untraced.wall).Seconds()
	finishTrace(p.o, rec, "request")
}

// createdTotal sums the named spans of requests that created new work.
func (p *pass) createdTotal(name string) time.Duration {
	var d time.Duration
	for _, r := range p.reqs {
		if r.created {
			d += p.rec.total(name, r.id)
		}
	}
	return d
}

// measureClientLayers times, off the blocking path, the layers the server
// runs on each fresh request's body: spec decoding and normalization, and
// the Pauli or graph parse of its payload.
func (p *pass) measureClientLayers() {
	rec := p.rec
	root := rec.begin("client_layers", -1, "")
	for _, r := range p.reqs {
		if r.parent >= 0 {
			continue
		}
		ns := rec.begin("jobspec.normalize", root, r.id)
		var spec jobspec.Spec
		err := json.Unmarshal(r.body, &spec)
		if err == nil {
			err = spec.Normalize()
			_ = spec.Canonical()
		}
		rec.end(ns)
		if err != nil {
			p.o.fail("request %d: normalizing spec: %v", r.idx, err)
			continue
		}
		switch {
		case len(r.spec.Strings) > 0:
			ps := rec.begin("pauli.parse", root, r.id)
			_, err = picasso.ParsePauliStrings(r.spec.Strings)
			rec.end(ps)
		case r.spec.GraphData != "":
			gs := rec.begin("graph.parse", root, r.id)
			_, _, err = picasso.ParseGraph([]byte(r.spec.GraphData))
			rec.end(gs)
		}
		if err != nil {
			p.o.fail("request %d: parsing payload: %v", r.idx, err)
		}
	}
	rec.end(root)
}
