package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/characterization.json from the current code")

// charStep is one job of the characterization table: a fresh submission
// (parent == "") or an append/refine child of an earlier step's job.
type charStep struct {
	name   string
	parent string
	child  string // "append" | "refine" (children only)
	body   string
}

// charJob is what the golden file pins per job: the deterministic job id,
// the terminal state, a digest of the groups, and the summary with its
// wall-clock and race-timing fields cleared.
type charJob struct {
	Name      string         `json:"name"`
	ID        string         `json:"id"`
	State     string         `json:"state"`
	GroupsSHA string         `json:"groups_sha256"`
	Result    *ResultSummary `json:"result"`
}

// charPauli renders n deterministic Pauli strings on q qubits as a JSON list.
func charPauli(seed int64, n, q int) string {
	rng := rand.New(rand.NewSource(seed))
	strs := make([]string, n)
	for i := range strs {
		b := make([]byte, q)
		for j := range b {
			b[j] = "IXYZ"[rng.Intn(4)]
		}
		strs[i] = string(b)
	}
	blob, _ := json.Marshal(strs)
	return string(blob)
}

// charDIMACS renders a small circulant graph as a DIMACS payload.
func charDIMACS(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "c characterization graph\np edge %d %d\n", n, 3*n)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 5, 17} {
			fmt.Fprintf(&sb, "e %d %d\n", i+1, (i+d)%n+1)
		}
	}
	blob, _ := json.Marshal(sb.String())
	return string(blob)
}

// charSteps covers every schedule the service runs. Budgeted jobs pin
// workers (and shard, wherever the budget would otherwise derive it) so the
// tracked peaks do not depend on the core count.
func charSteps() []charStep {
	dimacs := charDIMACS(80)
	return []charStep{
		{name: "strings", body: `{"strings":` + charPauli(1, 24, 6) + `,"seed":3}`},
		{name: "random", body: `{"random":"700:0.5","seed":4}`},
		{name: "dimacs", body: `{"graph_data":` + dimacs + `,"seed":5}`},
		{name: "equitable", body: `{"graph_data":` + dimacs + `,"variant":"equitable","seed":6}`},
		{name: "budgeted-stream", body: `{"random":"1500:0.5","seed":7,"budget":"512KiB","shard":300,"workers":1}`},
		{name: "pipelined-stream", body: `{"random":"1500:0.5","seed":8,"shard":300,"pipeline":true}`},
		{name: "speculative-stream", body: `{"random":"1500:0.5","seed":9,"shard":300,"speculate":2}`},
		{name: "inline-refine", body: `{"random":"900:0.5","seed":12,"shard":300,"refine":{"rounds":4}}`},
		{name: "portfolio-refine", body: `{"random":"1200:0.5","seed":5,"shard":400,"workers":1,"budget":"4MiB","portfolio":{"entrants":2},"refine":{"rounds":3}}`},
		{name: "append", parent: "strings", child: "append", body: `{"strings":` + charPauli(2, 5, 6) + `}`},
		{name: "refine-child", parent: "random", child: "refine", body: `{"rounds":5}`},
		// A parent with both a refine and a portfolio block: its children
		// must neither race nor (for the append) refine.
		{name: "race-refine-parent", body: `{"strings":` + charPauli(3, 48, 8) + `,"seed":21,"shard":16,"workers":1,"portfolio":{"entrants":2},"refine":{"rounds":2}}`},
		{name: "race-refine-append", parent: "race-refine-parent", child: "append", body: `{"strings":` + charPauli(4, 3, 8) + `}`},
		{name: "race-refine-refine", parent: "race-refine-parent", child: "refine", body: `{"rounds":2,"budget":"1MiB"}`},
	}
}

// serveJSON drives the handler directly and decodes a 2xx body into v.
func serveJSON(t *testing.T, s *Server, method, path, body string, v any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewBufferString(body)))
	if rec.Code/100 == 2 && v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return rec.Code
}

// TestServiceCharacterization pins the service's outputs — groups and the
// deterministic summary fields — for a table of small jobs covering every
// schedule, so a refactor of the run path cannot change what a client sees.
// Regenerate with -update only when a behaviour change is intended.
func TestServiceCharacterization(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := map[string]string{}
	var got []charJob
	for _, step := range charSteps() {
		path := "/v1/jobs"
		if step.parent != "" {
			path += "/" + ids[step.parent] + "/" + step.child
		}
		var sr SubmitResponse
		if code := serveJSON(t, s, http.MethodPost, path, step.body, &sr); code != http.StatusAccepted {
			t.Fatalf("%s: submit HTTP %d", step.name, code)
		}
		ids[step.name] = sr.ID

		var st StatusResponse
		for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			if code := serveJSON(t, s, http.MethodGet, "/v1/jobs/"+sr.ID, "", &st); code != http.StatusOK {
				t.Fatalf("%s: status HTTP %d", step.name, code)
			}
			if st.State != StateQueued && st.State != StateRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: job did not finish", step.name)
			}
		}
		job := charJob{Name: step.name, ID: sr.ID, State: st.State, Result: st.Result}
		var gr GroupsResponse
		if code := serveJSON(t, s, http.MethodGet, "/v1/jobs/"+sr.ID+"/groups", "", &gr); code == http.StatusOK {
			blob, _ := json.Marshal(gr.Groups)
			sum := sha256.Sum256(blob)
			job.GroupsSHA = hex.EncodeToString(sum[:])
		}
		if r := job.Result; r != nil {
			r.ElapsedMS, r.OverlapRatio = 0, 0
			if p := r.Portfolio; p != nil {
				p.TimeToBestMS, p.Cancelled = 0, 0
				for i := range p.EntrantStats {
					e := &p.EntrantStats[i]
					e.WallMS, e.Cancelled, e.CancelledAtShard = 0, false, 0
				}
			}
		}
		got = append(got, job)
	}

	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	golden := filepath.Join("testdata", "characterization.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var wantJobs []charJob
	if err := json.Unmarshal(want, &wantJobs); err != nil {
		t.Fatal(err)
	}
	if len(wantJobs) != len(got) {
		t.Fatalf("golden file pins %d jobs, table has %d", len(wantJobs), len(got))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(wantJobs[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s changed:\n got  %s\n want %s", got[i].Name, g, w)
		}
	}
}
