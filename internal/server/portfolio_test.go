package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

func TestPortfolioJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, sr := postJob(t, ts, `{"random":"1500:0.5","seed":3,"shard":500,"portfolio":{"entrants":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Portfolio == nil {
		t.Fatal("done portfolio job has no portfolio summary")
	}
	ps := st.Result.Portfolio
	if ps.Entrants != 3 || len(ps.EntrantStats) != 3 {
		t.Fatalf("portfolio summary reports %d entrants, %d rows", ps.Entrants, len(ps.EntrantStats))
	}
	if ps.Winner < 0 || ps.Winner >= 3 {
		t.Fatalf("winner index %d out of range", ps.Winner)
	}
	win := ps.EntrantStats[ps.Winner]
	if win.Cancelled || win.Colors != st.Result.NumColors {
		t.Fatalf("winner row %+v disagrees with summary colors %d", win, st.Result.NumColors)
	}
	for i, e := range ps.EntrantStats {
		if e.Index != i || e.Name == "" {
			t.Fatalf("entrant row %d malformed: %+v", i, e)
		}
		if !e.Cancelled && (e.Colors < win.Colors || e.Colors == win.Colors && i < ps.Winner) {
			t.Errorf("finished entrant %d (%d colors) beats winner %d (%d colors)", i, e.Colors, ps.Winner, win.Colors)
		}
	}

	// Groups must be the winner's actual coloring: proper count, full cover.
	var gr GroupsResponse
	if code := getJSON(t, ts, "/v1/jobs/"+sr.ID+"/groups", &gr); code != http.StatusOK {
		t.Fatalf("groups: HTTP %d", code)
	}
	if gr.NumGroups != st.Result.NumColors {
		t.Fatalf("groups %d != colors %d", gr.NumGroups, st.Result.NumColors)
	}
	total := 0
	for _, g := range gr.Groups {
		total += len(g)
	}
	if total != 1500 {
		t.Fatalf("groups cover %d of 1500 vertices", total)
	}

	// The stats counters observed the race.
	var stats StatsResponse
	if code := getJSON(t, ts, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.PortfolioEntrants != 3 {
		t.Errorf("portfolio_entrants = %d, want 3", stats.PortfolioEntrants)
	}
	if stats.PortfolioCancelled < 0 || stats.PortfolioCancelled > 2 {
		t.Errorf("portfolio_cancelled = %d out of range", stats.PortfolioCancelled)
	}

	// A resubmission of the same spec is a cache hit, not a rerun.
	code2, sr2 := postJob(t, ts, `{"random":"1500:0.5","seed":3,"shard":500,"portfolio":{"entrants":3}}`)
	if code2 != http.StatusOK || sr2.ID != sr.ID || !sr2.CacheHit {
		t.Fatalf("resubmit: HTTP %d %+v", code2, sr2)
	}
}

func TestPortfolioDefaultEntrants(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DefaultEntrants: 2})

	// Streamed spec without a portfolio block: the server default races it.
	_, sr := postJob(t, ts, `{"random":"1200:0.5","seed":5,"shard":400}`)
	st := waitState(t, ts, sr.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Result.Portfolio == nil || st.Result.Portfolio.Entrants != 2 {
		t.Fatalf("default entrants not applied: %+v", st.Result.Portfolio)
	}

	// One-shot specs are untouched — no shards to race over.
	_, sr2 := postJob(t, ts, `{"random":"1200:0.5","seed":5}`)
	st2 := waitState(t, ts, sr2.ID)
	if st2.State != StateDone || st2.Result.Portfolio != nil {
		t.Fatalf("one-shot job raced: state %s, portfolio %+v", st2.State, st2.Result.Portfolio)
	}
}

func TestPortfolioBadSpecTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxEntrants: 4})
	cases := []string{
		`{"random":"100:0.5","seed":1,"portfolio":{"entrants":0}}`,
		`{"random":"100:0.5","seed":1,"portfolio":{"entrants":-3}}`,
		`{"random":"100:0.5","seed":1,"portfolio":{"entrants":5}}`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		if derr := json.NewDecoder(resp.Body).Decode(&er); derr != nil {
			t.Fatal(derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Code != ErrCodeBadPortfolio {
			t.Errorf("%s: HTTP %d code %q, want 400 %q", body, resp.StatusCode, er.Code, ErrCodeBadPortfolio)
		}
	}

	// A one-entrant block is a plain run, not an error — and dedups with the
	// block-less spelling of the same job.
	code, sr := postJob(t, ts, `{"random":"300:0.5","seed":1,"stream":true,"portfolio":{"entrants":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("entrants=1 submit: HTTP %d", code)
	}
	code2, sr2 := postJob(t, ts, `{"random":"300:0.5","seed":1,"stream":true}`)
	if code2 != http.StatusOK || sr2.ID != sr.ID {
		t.Fatalf("entrants=1 did not canonicalize away: HTTP %d, ids %s vs %s", code2, sr.ID, sr2.ID)
	}
}
