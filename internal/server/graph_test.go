package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/workload"
)

// TestSubmitBadInputCode pins the typed 400: a spec whose input-source
// selection itself is wrong — zero kinds set, or several — answers the
// stable "bad_input" code, while a mistyped value inside a single kind
// stays an untyped 400.
func TestSubmitBadInputCode(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		code string
	}{
		{"no input", `{}`, ErrCodeBadInput},
		{"two inputs", `{"random":"100:0.5","graph":"queen5_5"}`, ErrCodeBadInput},
		{"three inputs", `{"random":"100:0.5","instance":"H2 1D sto3g","strings":["XX"]}`, ErrCodeBadInput},
		{"value error stays untyped", `{"random":"100"}`, ""},
		{"unknown variant stays untyped", `{"graph":"queen5_5","variant":"rainbow"}`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if er.Code != c.code {
				t.Fatalf("error code %q, want %q (error: %s)", er.Code, c.code, er.Error)
			}
		})
	}
}

// replayTestGroups converts a groups response back into a coloring for
// verification, failing the test on a malformed partition.
func replayTestGroups(t *testing.T, groups [][]int, n int) graph.Coloring {
	t.Helper()
	colors, err := replayGroups(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(colors) != n {
		t.Fatalf("groups cover %d of %d vertices", len(colors), n)
	}
	return colors
}

// TestGraphJobFullStack is the acceptance test for the general-graph
// workload: a DIMACS payload streams under a memory budget through a
// portfolio race with inline refinement, the published groups properly
// color the graph, and the persisted artifact answers three ways after a
// restart — the identical payload spec, the payload-less content-key
// spelling of it, and a refine child whose input CSR must come back from
// the artifact's graph section.
func TestGraphJobFullStack(t *testing.T) {
	dir := t.TempDir()
	base, _, err := workload.LookupGraph("queen8_8")
	if err != nil {
		t.Fatal(err)
	}
	payload := string(graph.WriteDIMACS(base))
	spec := fmt.Sprintf(`{"graph_data":%q,"shard":16,"budget":"64MiB","portfolio":{"entrants":2},"refine":{},"seed":7}`,
		payload)

	s1, ts1 := newTestServer(t, Config{Workers: 2, ArtifactDir: dir})
	code, sr := postJob(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts1, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Vertices != base.N || st.Result.NumColors <= 0 {
		t.Fatalf("result summary: %+v", st.Result)
	}
	if st.Result.Portfolio == nil || st.Result.Portfolio.Entrants != 2 {
		t.Fatalf("graph job did not race a portfolio: %+v", st.Result)
	}
	if st.Result.ColorsBefore < st.Result.NumColors {
		t.Fatalf("refinement did not ride along: before=%d after=%d",
			st.Result.ColorsBefore, st.Result.NumColors)
	}
	// The canonical spec collapsed the payload to its content key.
	if st.Spec.Graph != graph.ContentKey(base) || st.Spec.GraphData != "" {
		t.Fatalf("status spec not canonicalized: graph=%q graph_data=%q", st.Spec.Graph, st.Spec.GraphData)
	}
	var g1 GroupsResponse
	if code := getJSON(t, ts1, "/v1/jobs/"+sr.ID+"/groups", &g1); code != http.StatusOK {
		t.Fatalf("groups: HTTP %d", code)
	}
	colors := replayTestGroups(t, g1.Groups, base.N)
	if err := graph.VerifyOracle(base, colors); err != nil {
		t.Fatalf("published groups are not a proper coloring: %v", err)
	}
	if n := s1.Stats().ArtifactWrites; n != 1 {
		t.Fatalf("artifact_writes = %d, want 1", n)
	}
	ts1.Close()
	s1.Close()

	// Restart on the same artifact dir: the identical payload spec is a
	// disk hit, not a recolor.
	s2, ts2 := newTestServer(t, Config{Workers: 2, ArtifactDir: dir})
	code, sr2 := postJob(t, ts2, spec)
	if code != http.StatusOK || !sr2.CacheHit || sr2.ID != sr.ID {
		t.Fatalf("resubmit after restart: HTTP %d %+v, want disk hit on %s", code, sr2, sr.ID)
	}
	var g2 GroupsResponse
	if code := getJSON(t, ts2, "/v1/jobs/"+sr2.ID+"/groups", &g2); code != http.StatusOK {
		t.Fatalf("groups after restart: HTTP %d", code)
	}
	if !reflect.DeepEqual(g1.Groups, g2.Groups) {
		t.Fatal("rehydrated groups differ from the original run's")
	}

	// The payload-less content-key spelling canonicalizes identically, so
	// it hits the same artifact without ever shipping the edge data.
	keySpec := fmt.Sprintf(`{"graph":%q,"shard":16,"budget":"64MiB","portfolio":{"entrants":2},"refine":{},"seed":7}`,
		graph.ContentKey(base))
	if code, sr3 := postJob(t, ts2, keySpec); code != http.StatusOK || sr3.ID != sr.ID {
		t.Fatalf("content-key spelling: HTTP %d %+v, want hit on %s", code, sr3, sr.ID)
	}
	if got := s2.Stats().Completed; got != 0 {
		t.Fatalf("restarted server recolored (completed = %d), want disk hits only", got)
	}

	// A refine child against the rehydrated parent must rebuild the input
	// from the artifact's graph section: the parent spec carries only the
	// content key, and this process never saw the payload.
	rcode, rsr, _ := postPath(t, ts2, "/v1/jobs/"+sr.ID+"/refine", `{}`)
	if rcode != http.StatusAccepted && rcode != http.StatusOK {
		t.Fatalf("refine after restart: HTTP %d", rcode)
	}
	rst := waitState(t, ts2, rsr.ID)
	if rst.State != StateDone {
		t.Fatalf("refine job finished %s: %s", rst.State, rst.Error)
	}
	var rg GroupsResponse
	if code := getJSON(t, ts2, "/v1/jobs/"+rsr.ID+"/groups", &rg); code != http.StatusOK {
		t.Fatalf("refined groups: HTTP %d", code)
	}
	if err := graph.VerifyOracle(base, replayTestGroups(t, rg.Groups, base.N)); err != nil {
		t.Fatalf("refined groups are not a proper coloring: %v", err)
	}
}

// TestGraphVariantJobs colors a benchmark under each variant through the
// HTTP layer: the summary reports the variant, equitable publishes a
// proper coloring, and distance2 publishes groups proper on the square —
// adjacent-and-two-hop neighbors never share a group.
func TestGraphVariantJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	base, _, err := workload.LookupGraph("queen6_6")
	if err != nil {
		t.Fatal(err)
	}

	code, eq := postJob(t, ts, `{"graph":"queen6_6","variant":"equitable","seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("equitable submit: HTTP %d", code)
	}
	est := waitState(t, ts, eq.ID)
	if est.State != StateDone {
		t.Fatalf("equitable job finished %s: %s", est.State, est.Error)
	}
	if est.Result == nil || est.Result.Variant != "equitable" {
		t.Fatalf("summary does not report the variant: %+v", est.Result)
	}
	var eg GroupsResponse
	if code := getJSON(t, ts, "/v1/jobs/"+eq.ID+"/groups", &eg); code != http.StatusOK {
		t.Fatalf("equitable groups: HTTP %d", code)
	}
	if err := graph.VerifyOracle(base, replayTestGroups(t, eg.Groups, base.N)); err != nil {
		t.Fatalf("equitable groups improper: %v", err)
	}

	code, d2 := postJob(t, ts, `{"graph":"queen6_6","variant":"distance2","seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("distance2 submit: HTTP %d", code)
	}
	dst := waitState(t, ts, d2.ID)
	if dst.State != StateDone {
		t.Fatalf("distance2 job finished %s: %s", dst.State, dst.Error)
	}
	if dst.Result == nil || dst.Result.Variant != "distance2" {
		t.Fatalf("summary does not report the variant: %+v", dst.Result)
	}
	if d2.ID == eq.ID {
		t.Fatal("variant does not separate job identities over HTTP")
	}
	var dg GroupsResponse
	if code := getJSON(t, ts, "/v1/jobs/"+d2.ID+"/groups", &dg); code != http.StatusOK {
		t.Fatalf("distance2 groups: HTTP %d", code)
	}
	if err := graph.VerifyOracle(graph.NewSquare(base), replayTestGroups(t, dg.Groups, base.N)); err != nil {
		t.Fatalf("distance2 groups improper on the square: %v", err)
	}
}
