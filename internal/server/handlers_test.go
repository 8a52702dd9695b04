package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"picasso/internal/jobspec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st StatusResponse
		if code := getJSON(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State == StateDone || st.State == StateFailed || st.State == StateCancelled {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return StatusResponse{}
}

func TestSubmitPollGroups(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, sr := postJob(t, ts, `{"random":"300:0.5","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if sr.ID == "" || sr.CacheHit || sr.Hits != 1 {
		t.Fatalf("submit response: %+v", sr)
	}

	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result == nil || st.Result.Vertices != 300 || st.Result.NumColors <= 0 {
		t.Fatalf("bad result summary: %+v", st.Result)
	}
	if st.Result.Iterations <= 0 || st.Result.NumGroups != st.Result.NumColors {
		t.Fatalf("bad result summary: %+v", st.Result)
	}

	var gr GroupsResponse
	if code := getJSON(t, ts, "/v1/jobs/"+sr.ID+"/groups", &gr); code != http.StatusOK {
		t.Fatalf("groups: HTTP %d", code)
	}
	if gr.NumGroups == 0 || len(gr.Groups) != gr.NumGroups {
		t.Fatalf("empty groups: %+v", gr)
	}
	total := 0
	for _, g := range gr.Groups {
		if len(g) == 0 {
			t.Fatal("empty group in partition")
		}
		total += len(g)
	}
	if total != 300 {
		t.Fatalf("groups cover %d vertices, want 300", total)
	}
}

// TestDeterministicJobID pins the id derivation: the same canonical spec
// must map to the same id across servers and runs.
func TestDeterministicJobID(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Workers: 1})
	_, ts2 := newTestServer(t, Config{Workers: 1})
	_, a := postJob(t, ts1, `{"random":"200:0.5","seed":4}`)
	_, b := postJob(t, ts2, `{"random":"200:0.50","mode":"normal","seed":4}`)
	if a.ID == "" || a.ID != b.ID {
		t.Fatalf("ids differ for one canonical spec: %q vs %q", a.ID, b.ID)
	}
}

func TestCacheHitCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := `{"random":"250:0.5","seed":2}`
	code, first := postJob(t, ts, body)
	if code != http.StatusAccepted || first.CacheHit {
		t.Fatalf("first submit: HTTP %d %+v", code, first)
	}
	waitState(t, ts, first.ID)

	// Identical spec, differently spelled: served from cache, no rerun.
	code, second := postJob(t, ts, `{"random":"250:0.50","mode":"normal","seed":2}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	if !second.CacheHit || second.ID != first.ID || second.Hits != 2 {
		t.Fatalf("resubmit response: %+v", second)
	}
	var st StatusResponse
	getJSON(t, ts, "/v1/jobs/"+first.ID, &st)
	if st.Hits != 2 {
		t.Fatalf("status hits = %d, want 2", st.Hits)
	}
	stats := s.Stats()
	if stats.Submitted != 2 || stats.CacheHits != 1 || stats.Completed != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxVertices: 1000})
	cases := []struct {
		name string
		body string
		code int
		msg  string
	}{
		{"bad json", `{`, http.StatusBadRequest, "decoding"},
		{"unknown field", `{"radnom":"100:0.5"}`, http.StatusBadRequest, "unknown field"},
		{"no input", `{}`, http.StatusBadRequest, "no input"},
		{"bad random", `{"random":"100"}`, http.StatusBadRequest, "n:density"},
		{"unknown instance", `{"instance":"H6 3D sto3h"}`, http.StatusBadRequest, "did you mean"},
		{"unknown backend", `{"random":"100:0.5","backend":"tpu"}`, http.StatusBadRequest, "unknown backend"},
		{"deviceless gpu backend", `{"random":"100:0.5","backend":"gpu"}`, http.StatusBadRequest, "cannot run in this service"},
		{"deleted multigpu backend", `{"random":"100:0.5","backend":"multigpu"}`, http.StatusBadRequest, "unknown backend"},
		{"deleted pipeline knob", `{"random":"100:0.5","pipeline":true}`, http.StatusBadRequest, "unknown field"},
		{"too large", `{"random":"5000:0.5"}`, http.StatusRequestEntityTooLarge, "exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, c.code)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, c.msg) {
				t.Fatalf("error %q lacks %q", er.Error, c.msg)
			}
		})
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code := getJSON(t, ts, "/v1/jobs/jdeadbeef", nil); code != http.StatusNotFound {
		t.Fatalf("status: HTTP %d", code)
	}
	if code := getJSON(t, ts, "/v1/jobs/jdeadbeef/groups", nil); code != http.StatusNotFound {
		t.Fatalf("groups: HTTP %d", code)
	}
}

func TestFailedJobGroups(t *testing.T) {
	// HTTP admission rejects device-backed backends, so inject the doomed
	// job through Submit directly: "gpu" without a device is a validation
	// error inside the run, and the job must finish as failed with its
	// groups answering 409.
	s, ts := newTestServer(t, Config{Workers: 1})
	spec := jobspec.Spec{Random: "100:0.5", Backend: "gpu"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	job, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, ts, job.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("want failed state with error, got %+v", st)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+job.ID+"/groups", nil); code != http.StatusConflict {
		t.Fatalf("groups of failed job: HTTP %d", code)
	}
}

func TestPauliStringsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sr := postJob(t, ts, `{"strings":["IXYZ","XXII","ZZYX","YIZX"],"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	var gr GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+sr.ID+"/groups", &gr)
	total := 0
	for _, g := range gr.Groups {
		total += len(g)
	}
	if total != 4 {
		t.Fatalf("groups cover %d strings, want 4", total)
	}
}

func TestMoleculeInstanceJob(t *testing.T) {
	// A tiny non-Table-II hydrogen system keeps the build fast while still
	// exercising the molecule path end to end.
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sr := postJob(t, ts, `{"instance":"H2 1D sto3g","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result.Vertices == 0 || st.Result.NumGroups == 0 {
		t.Fatalf("bad result: %+v", st.Result)
	}
}

func TestLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		code, sr := postJob(t, ts, fmt.Sprintf(`{"random":"150:0.5","seed":%d}`, i+10))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, sr.ID)
		waitState(t, ts, sr.ID) // serialize: single worker, FIFO completion
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Fatalf("evicted job still present: HTTP %d", code)
	}
	for _, id := range ids[1:] {
		if code := getJSON(t, ts, "/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Fatalf("retained job missing: HTTP %d", code)
		}
	}
	if stats := s.Stats(); stats.Evicted != 1 || stats.Retained != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestAuxEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var health map[string]string
	if code := getJSON(t, ts, "/v1/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	// The registry minus gpu, which needs a device the service does not have.
	var backends map[string][]string
	if code := getJSON(t, ts, "/v1/backends", &backends); code != http.StatusOK ||
		!slices.Equal(backends["backends"], []string{"auto", "parallel", "sequential"}) {
		t.Fatalf("backends: %d %v", code, backends)
	}
	var instances map[string][]string
	if code := getJSON(t, ts, "/v1/instances", &instances); code != http.StatusOK || len(instances["instances"]) != 18 {
		t.Fatalf("instances: %d %v", code, instances)
	}
	var stats StatsResponse
	if code := getJSON(t, ts, "/v1/stats", &stats); code != http.StatusOK || stats.Workers != 1 {
		t.Fatalf("stats: %d %+v", code, stats)
	}
}

func TestUnknownDefaultBackend(t *testing.T) {
	if _, err := New(Config{DefaultBackend: "tpu"}); err == nil {
		t.Fatal("want error for unknown default backend")
	}
	// Known name, but unservable without a device: reject at startup too.
	if _, err := New(Config{DefaultBackend: "gpu"}); err == nil {
		t.Fatal("want error for device-backed default backend")
	}
}

func TestCancelEndpointStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	del := func(id string) (int, map[string]string) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := map[string]string{}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, _ := del("jffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: HTTP %d", code)
	}

	// A finished job cannot be cancelled — its results stay served.
	_, sr := postJob(t, ts, `{"random":"200:0.5","seed":9}`)
	waitState(t, ts, sr.ID)
	if code, _ := del(sr.ID); code != http.StatusConflict {
		t.Fatalf("DELETE done job: HTTP %d", code)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+sr.ID+"/groups", &GroupsResponse{}); code != http.StatusOK {
		t.Fatalf("groups after refused cancel: HTTP %d", code)
	}

	// A queued job cancels with 200 + terminal state in the response.
	_, blocker := postJob(t, ts, `{"random":"12000:0.5","seed":10,"workers":1}`)
	_, queued := postJob(t, ts, `{"random":"400:0.5","seed":11}`)
	code, body := del(queued.ID)
	if code != http.StatusOK || body["state"] != StateCancelled {
		t.Fatalf("DELETE queued: HTTP %d %v", code, body)
	}
	if st := waitState(t, ts, queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job terminal state %s", st.State)
	}
	waitState(t, ts, blocker.ID)
}

func TestAppendExtendsGroupingWithoutRecoloring(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Parent: an inline Pauli job.
	parentBody := `{"strings":["IIXX","XXII","ZZZZ","XYXY","YXYX","IZIZ","ZIZI","XIXI"],"seed":6}`
	code, parent := postJob(t, ts, parentBody)
	if code != http.StatusAccepted {
		t.Fatalf("parent submit: HTTP %d", code)
	}
	if st := waitState(t, ts, parent.ID); st.State != StateDone {
		t.Fatalf("parent failed: %s", st.Error)
	}
	var parentGroups GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+parent.ID+"/groups", &parentGroups)

	appendBody := `{"strings":["YYII","IIYY"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs/"+parent.ID+"/append", "application/json",
		strings.NewReader(appendBody))
	if err != nil {
		t.Fatal(err)
	}
	var ar SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ar.ID == parent.ID {
		t.Fatalf("append submit: HTTP %d %+v", resp.StatusCode, ar)
	}

	st := waitState(t, ts, ar.ID)
	if st.State != StateDone {
		t.Fatalf("append job failed: %s", st.Error)
	}
	if st.AppendTo != parent.ID || st.AppendCount != 2 {
		t.Fatalf("append status lacks lineage: %+v", st)
	}
	if st.Result.Vertices != 10 {
		t.Fatalf("append result covers %d vertices, want 10", st.Result.Vertices)
	}

	// Old strings keep exactly their parent grouping: result group i must
	// contain parent group i's members (new strings may join existing
	// groups or open new ones).
	var got GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+ar.ID+"/groups", &got)
	if len(got.Groups) < len(parentGroups.Groups) {
		t.Fatalf("append lost groups: %d -> %d", len(parentGroups.Groups), len(got.Groups))
	}
	for gi, pg := range parentGroups.Groups {
		members := map[int]bool{}
		for _, v := range got.Groups[gi] {
			members[v] = true
		}
		for _, v := range pg {
			if !members[v] {
				t.Fatalf("old string %d left its group %d", v, gi)
			}
		}
	}
	total := 0
	for _, g := range got.Groups {
		total += len(g)
	}
	if total != 10 {
		t.Fatalf("appended groups cover %d of 10 strings", total)
	}

	// Resubmitting the same append is a cache hit, not a recompute.
	resp2, err := http.Post(ts.URL+"/v1/jobs/"+parent.ID+"/append", "application/json",
		strings.NewReader(appendBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate append: HTTP %d", resp2.StatusCode)
	}

	// Chained append: extending the append job itself folds its strings in
	// and freezes its whole 10-vertex grouping.
	resp3, err := http.Post(ts.URL+"/v1/jobs/"+ar.ID+"/append", "application/json",
		strings.NewReader(`{"strings":["ZXZX"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var chained SubmitResponse
	if err := json.NewDecoder(resp3.Body).Decode(&chained); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("chained append submit: HTTP %d", resp3.StatusCode)
	}
	cst := waitState(t, ts, chained.ID)
	if cst.State != StateDone {
		t.Fatalf("chained append failed: %s", cst.Error)
	}
	if cst.Result.Vertices != 11 || cst.AppendTo != ar.ID || cst.AppendCount != 1 {
		t.Fatalf("chained append result: %+v", cst)
	}
	var cg GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+chained.ID+"/groups", &cg)
	for gi, pg := range got.Groups { // the first append's grouping is frozen in turn
		members := map[int]bool{}
		for _, v := range cg.Groups[gi] {
			members[v] = true
		}
		for _, v := range pg {
			if !members[v] {
				t.Fatalf("chained append moved string %d out of group %d", v, gi)
			}
		}
	}
}

func TestAppendRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post := func(id, body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/append", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("junknown00000000", `{"strings":["XX"]}`); code != http.StatusNotFound {
		t.Fatalf("append to unknown: HTTP %d", code)
	}

	// Random-graph parents have no strings to extend.
	_, randomJob := postJob(t, ts, `{"random":"200:0.5","seed":3}`)
	waitState(t, ts, randomJob.ID)
	if code := post(randomJob.ID, `{"strings":["XX"]}`); code != http.StatusBadRequest {
		t.Fatalf("append to random parent: HTTP %d", code)
	}

	_, pauli := postJob(t, ts, `{"strings":["XX","ZZ","YY"],"seed":3}`)
	waitState(t, ts, pauli.ID)
	if code := post(pauli.ID, `{"strings":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty append: HTTP %d", code)
	}
	if code := post(pauli.ID, `{"strings":["   "]}`); code != http.StatusBadRequest {
		t.Fatalf("blank append: HTTP %d", code)
	}

	// A qubit-width mismatch is only discoverable at run time: accepted,
	// then failed.
	resp, err := http.Post(ts.URL+"/v1/jobs/"+pauli.ID+"/append", "application/json",
		strings.NewReader(`{"strings":["XXXXXX"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ar SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mismatched append submit: HTTP %d", resp.StatusCode)
	}
	if st := waitState(t, ts, ar.ID); st.State != StateFailed || !strings.Contains(st.Error, "qubits") {
		t.Fatalf("mismatched append ended %s: %s", st.State, st.Error)
	}
}

// postPath POSTs a body to a job subresource and decodes either response
// shape.
func postPath(t *testing.T, ts *httptest.Server, path, body string) (int, SubmitResponse, ErrorResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	var er ErrorResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr, er
}

func TestRefineJobOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Parent: a random-graph job (refinement works on any input kind).
	code, parent := postJob(t, ts, `{"random":"900:0.5","seed":8}`)
	if code != http.StatusAccepted {
		t.Fatalf("parent submit: HTTP %d", code)
	}
	pst := waitState(t, ts, parent.ID)
	if pst.State != StateDone {
		t.Fatalf("parent failed: %s", pst.Error)
	}

	code, rj, _ := postPath(t, ts, "/v1/jobs/"+parent.ID+"/refine", `{"rounds":6}`)
	if code != http.StatusAccepted || rj.ID == parent.ID {
		t.Fatalf("refine submit: HTTP %d %+v", code, rj)
	}
	st := waitState(t, ts, rj.ID)
	if st.State != StateDone {
		t.Fatalf("refine job failed: %s", st.Error)
	}
	if st.RefineOf != parent.ID {
		t.Fatalf("refine status lacks lineage: %+v", st)
	}
	if st.Result.ColorsBefore != pst.Result.NumColors {
		t.Fatalf("refine started from %d colors, parent finished with %d",
			st.Result.ColorsBefore, pst.Result.NumColors)
	}
	if st.Result.NumColors >= st.Result.ColorsBefore {
		t.Fatalf("refinement won nothing: %d -> %d", st.Result.ColorsBefore, st.Result.NumColors)
	}
	if st.Result.RefineRounds == 0 {
		t.Fatal("refine summary reports zero rounds")
	}

	// The compacted grouping still partitions the whole input; the parent's
	// own groups stay served unchanged.
	var gr GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+rj.ID+"/groups", &gr)
	total := 0
	for _, g := range gr.Groups {
		total += len(g)
	}
	if total != 900 || gr.NumGroups != st.Result.NumColors {
		t.Fatalf("refined groups cover %d vertices in %d groups: %+v", total, gr.NumGroups, st.Result)
	}
	var pg GroupsResponse
	if code := getJSON(t, ts, "/v1/jobs/"+parent.ID+"/groups", &pg); code != http.StatusOK {
		t.Fatalf("parent groups after refine: HTTP %d", code)
	}
	if pg.NumGroups != pst.Result.NumGroups {
		t.Fatalf("refine mutated the parent's groups: %d -> %d", pst.Result.NumGroups, pg.NumGroups)
	}

	// Resubmitting the same refinement is a cache hit; different knobs are a
	// different job.
	code, dup, _ := postPath(t, ts, "/v1/jobs/"+parent.ID+"/refine", `{"rounds":6}`)
	if code != http.StatusOK || !dup.CacheHit || dup.ID != rj.ID {
		t.Fatalf("duplicate refine: HTTP %d %+v", code, dup)
	}
	code, other, _ := postPath(t, ts, "/v1/jobs/"+parent.ID+"/refine", `{"rounds":2}`)
	if code != http.StatusAccepted || other.ID == rj.ID {
		t.Fatalf("distinct refine knobs deduplicated: HTTP %d %+v", code, other)
	}
	waitState(t, ts, other.ID)

	// An empty body refines with engine defaults.
	code, def, _ := postPath(t, ts, "/v1/jobs/"+parent.ID+"/refine", ``)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("default refine: HTTP %d", code)
	}
	if st := waitState(t, ts, def.ID); st.State != StateDone {
		t.Fatalf("default refine failed: %s", st.Error)
	}
}

func TestRefinePauliJobOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, parent := postJob(t, ts, `{"strings":["IIXX","XXII","ZZZZ","XYXY","YXYX","IZIZ","ZIZI","XIXI"],"seed":6}`)
	if code != http.StatusAccepted {
		t.Fatalf("parent submit: HTTP %d", code)
	}
	if st := waitState(t, ts, parent.ID); st.State != StateDone {
		t.Fatalf("parent failed: %s", st.Error)
	}
	// Refine an append child: the rebuilt input must fold the appended
	// strings back in before replaying the groups.
	code, aj, _ := postPath(t, ts, "/v1/jobs/"+parent.ID+"/append", `{"strings":["YYII","IIYY"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("append submit: HTTP %d", code)
	}
	if st := waitState(t, ts, aj.ID); st.State != StateDone {
		t.Fatalf("append failed: %s", st.Error)
	}
	code, rj, _ := postPath(t, ts, "/v1/jobs/"+aj.ID+"/refine", `{}`)
	if code != http.StatusAccepted {
		t.Fatalf("refine submit: HTTP %d", code)
	}
	st := waitState(t, ts, rj.ID)
	if st.State != StateDone {
		t.Fatalf("refine of append failed: %s", st.Error)
	}
	if st.Result.Vertices != 10 {
		t.Fatalf("refine of append covers %d vertices, want 10", st.Result.Vertices)
	}
	var gr GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+rj.ID+"/groups", &gr)
	total := 0
	for _, g := range gr.Groups {
		total += len(g)
	}
	if total != 10 {
		t.Fatalf("refined groups cover %d of 10 strings", total)
	}

	// Append to the refine job in turn: the refine parent's appended
	// strings must fold into the rebuilt input, so the child covers 11
	// vertices with the refined 10-vertex grouping frozen.
	code, cj, _ := postPath(t, ts, "/v1/jobs/"+rj.ID+"/append", `{"strings":["ZXZX"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("append to refine job: HTTP %d", code)
	}
	cst := waitState(t, ts, cj.ID)
	if cst.State != StateDone {
		t.Fatalf("append to refine job failed: %s", cst.Error)
	}
	if cst.Result.Vertices != 11 || cst.AppendTo != rj.ID {
		t.Fatalf("append to refine job result: %+v", cst)
	}
	var cg GroupsResponse
	getJSON(t, ts, "/v1/jobs/"+cj.ID+"/groups", &cg)
	for gi, pg := range gr.Groups { // the refined grouping is frozen in turn
		members := map[int]bool{}
		for _, v := range cg.Groups[gi] {
			members[v] = true
		}
		for _, v := range pg {
			if !members[v] {
				t.Fatalf("append to refine job moved string %d out of group %d", v, gi)
			}
		}
	}
}

// TestChildEndpointsRejectTerminalParents is the job-control audit: append
// and refine against a parent that ended cancelled or failed must answer a
// clean typed 409 — never a 500, never a child job replaying empty groups.
func TestChildEndpointsRejectTerminalParents(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// A failed parent: inject a doomed spec directly (HTTP admission would
	// reject the device-backed backend).
	spec := jobspec.Spec{Strings: []string{"XX", "ZZ"}, Backend: "gpu"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	failed, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, ts, failed.ID); st.State != StateFailed {
		t.Fatalf("doomed parent ended %s", st.State)
	}

	// A cancelled parent: block the single worker, cancel the queued job.
	_, blocker := postJob(t, ts, `{"random":"12000:0.5","seed":44,"workers":1}`)
	_, queued := postJob(t, ts, `{"strings":["XX","ZZ","YY"],"seed":44}`)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitState(t, ts, queued.ID); st.State != StateCancelled {
		t.Fatalf("queued parent ended %s", st.State)
	}

	for _, parent := range []struct{ name, id string }{
		{"failed", failed.ID},
		{"cancelled", queued.ID},
	} {
		for _, ep := range []struct{ path, body string }{
			{"/append", `{"strings":["YY"]}`},
			{"/refine", `{}`},
		} {
			code, _, er := postPath(t, ts, "/v1/jobs/"+parent.id+ep.path, ep.body)
			if code != http.StatusConflict {
				t.Errorf("%s parent %s: HTTP %d, want 409", parent.name, ep.path, code)
				continue
			}
			if er.Code != ErrCodeParentNotDone {
				t.Errorf("%s parent %s: code %q, want %q", parent.name, ep.path, er.Code, ErrCodeParentNotDone)
			}
			if !strings.Contains(er.Error, parent.name) {
				t.Errorf("%s parent %s: error %q does not name the state", parent.name, ep.path, er.Error)
			}
		}
	}

	// Unknown parents carry their own code.
	code, _, er := postPath(t, ts, "/v1/jobs/junknown00000000/refine", `{}`)
	if code != http.StatusNotFound || er.Code != ErrCodeUnknownJob {
		t.Errorf("unknown refine parent: HTTP %d code %q", code, er.Code)
	}

	// Malformed refine knobs are rejected before any parent lookup.
	code, _, _ = postPath(t, ts, "/v1/jobs/"+failed.ID+"/refine", `{"rounds":-1}`)
	if code != http.StatusBadRequest {
		t.Errorf("negative rounds: HTTP %d", code)
	}
	code, _, _ = postPath(t, ts, "/v1/jobs/"+failed.ID+"/refine", `{"budget":"lots"}`)
	if code != http.StatusBadRequest {
		t.Errorf("bad budget: HTTP %d", code)
	}
	code, _, _ = postPath(t, ts, "/v1/jobs/"+failed.ID+"/refine", `{"budget":"-1GiB"}`)
	if code != http.StatusBadRequest {
		t.Errorf("negative budget: HTTP %d", code)
	}

	waitState(t, ts, blocker.ID)
}

func TestSpecRefineBlockJob(t *testing.T) {
	// A spec carrying a refine block colors and refines in one job: the
	// published grouping is the compacted one and the summary carries the
	// pre-refinement count.
	_, ts := newTestServer(t, Config{Workers: 2})
	code, sr := postJob(t, ts, `{"random":"900:0.5","seed":12,"shard":300,"refine":{"rounds":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result.ColorsBefore == 0 || st.Result.NumColors >= st.Result.ColorsBefore {
		t.Fatalf("inline refinement won nothing: %+v", st.Result)
	}
	if st.Result.RefineRounds == 0 || st.Result.Shards != 3 {
		t.Fatalf("summary lost the pipeline shape: %+v", st.Result)
	}
	if st.Result.NumGroups != st.Result.NumColors {
		t.Fatalf("groups/colors mismatch: %+v", st.Result)
	}

	// The refine block is part of the canonical spec: the same job without
	// it is a different id.
	_, plain := postJob(t, ts, `{"random":"900:0.5","seed":12,"shard":300}`)
	if plain.ID == sr.ID {
		t.Fatal("refine block did not change the job id")
	}
	waitState(t, ts, plain.ID)
}

func TestSpecRefineKeepsServerDefaultBudget(t *testing.T) {
	// A refine block with no budget of its own must not strip the server's
	// default per-job budget off the refinement phase: the whole pipeline
	// stays governed, and the summary's peak respects it.
	budget := int64(8 << 20)
	_, ts := newTestServer(t, Config{Workers: 1, DefaultBudgetBytes: budget})
	code, sr := postJob(t, ts, `{"random":"1200:0.5","seed":7,"refine":{"rounds":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result.PeakBytes == 0 || st.Result.PeakBytes > budget {
		t.Fatalf("pipeline peak %d against default budget %d", st.Result.PeakBytes, budget)
	}
	if st.Result.BudgetExceeded {
		t.Fatal("default budget reported exceeded")
	}
	if st.Result.RefineRounds == 0 {
		t.Fatalf("refinement never ran: %+v", st.Result)
	}

	// An explicit refine budget equal to the inherited default is a no-op
	// spelling: it must join the default-budget refine job, not recompute.
	code, r1, _ := postPath(t, ts, "/v1/jobs/"+sr.ID+"/refine", `{}`)
	if code != http.StatusAccepted {
		t.Fatalf("default refine: HTTP %d", code)
	}
	waitState(t, ts, r1.ID)
	code, r2, _ := postPath(t, ts, "/v1/jobs/"+sr.ID+"/refine", `{"budget":"8MiB"}`)
	if code != http.StatusOK || r2.ID != r1.ID || !r2.CacheHit {
		t.Fatalf("no-op budget spelling did not dedup: HTTP %d %+v vs %q", code, r2, r1.ID)
	}
}

func TestCacheBoundedByResultBytes(t *testing.T) {
	// Entry count alone would retain all jobs (CacheSize 100); the byte
	// bound must evict: each n=400 job pins ≈ 3.5 KiB of groups, so a 6 KiB
	// budget holds barely one finished result at a time.
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 100, CacheBytes: 6 << 10})

	var ids []string
	for seed := 0; seed < 3; seed++ {
		_, sr := postJob(t, ts, fmt.Sprintf(`{"random":"400:0.5","seed":%d}`, 100+seed))
		if st := waitState(t, ts, sr.ID); st.State != StateDone {
			t.Fatalf("job failed: %s", st.Error)
		}
		ids = append(ids, sr.ID)
	}

	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Evicted == 0 {
		t.Fatalf("no evictions under a 6 KiB cache: %+v", stats)
	}
	if stats.CacheBytes > 2*(6<<10) {
		t.Fatalf("cache holds %d bytes against a 6 KiB bound", stats.CacheBytes)
	}
	// The earliest job is gone, the newest survives.
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Fatalf("evicted job still served: HTTP %d", code)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[2], nil); code != http.StatusOK {
		t.Fatalf("newest job evicted: HTTP %d", code)
	}
	s.mu.Lock()
	retained := s.done.Len()
	s.mu.Unlock()
	if retained >= 3 {
		t.Fatalf("byte bound retained all %d jobs", retained)
	}
}

func TestStreamedJobOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, sr := postJob(t, ts, `{"random":"3000:0.5","seed":5,"shard":1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("streamed job failed: %s", st.Error)
	}
	if st.Result.Shards != 3 {
		t.Fatalf("streamed job ran %d shards, want 3", st.Result.Shards)
	}

	// Budget-driven: the spec only names a budget; the server streams under
	// it and reports the tracked peak.
	code, sr2 := postJob(t, ts, `{"random":"3000:0.5","seed":5,"budget":"4MiB"}`)
	if code != http.StatusAccepted {
		t.Fatalf("budget submit: HTTP %d", code)
	}
	st2 := waitState(t, ts, sr2.ID)
	if st2.State != StateDone {
		t.Fatalf("budget job failed: %s", st2.Error)
	}
	if st2.Result.PeakBytes == 0 || st2.Result.PeakBytes > 4<<20 {
		t.Fatalf("budget job peak %d bytes against 4 MiB", st2.Result.PeakBytes)
	}
	if st2.Result.BudgetExceeded {
		t.Fatal("budget job reported exceeded")
	}
	if st2.Result.Shards < 2 {
		t.Fatalf("budget job ran %d shard(s)", st2.Result.Shards)
	}
}
