package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"picasso/internal/jobspec"
	"picasso/internal/memtrack"
)

// TestSelfTimeArithmetic checks self time on a hand-built tree: a root with
// two overlapping children (one reaching past the root's end) and a
// grandchild.
func TestSelfTimeArithmetic(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(50), Parent: 0},
		{Name: "b", Start: ms(40), End: ms(120), Parent: 0}, // overlaps a, overruns root
		{Name: "c", Start: ms(20), End: ms(30), Parent: 1},
		{Name: "c", Start: ms(45), End: ms(60), Parent: 1}, // clipped to a at 50
	}
	want := map[string]time.Duration{
		"root": ms(10),      // 100 − |[10,100]|
		"a":    ms(40 - 15), // 40 − (10 + 5)
		"b":    ms(80),      // no children
		"c":    ms(25),      // 10 + 15
	}
	got := map[string]time.Duration{}
	counts := map[string]int{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r.Self
		counts[r.Name] = r.Count
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if counts["c"] != 2 {
		t.Errorf("count(c) = %d, want 2", counts["c"])
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile([]float64{0, 10}, 0.9); q != 9 {
		t.Errorf("p90 of {0,10} = %v, want 9", q)
	}
	if e := tailExtra("p90", make([]float64, 99)); e.ok {
		t.Errorf("p90 of 99 samples reported, want n/a (9 beyond)")
	}
	if e := tailExtra("p90", make([]float64, 100)); !e.ok {
		t.Errorf("p90 of 100 samples is n/a, want reported (10 beyond)")
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the program's metric tables and
// the repository's BENCHMARK.json in step.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program %d", kind, len(decl), len(defs))
			return
		}
		for i, d := range defs {
			if decl[i].Name != d.name || decl[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, decl[i].Name, decl[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestDenseBudgetBelowOneShotPeak checks that the tiny dense workload's
// fixed budget lies below the one-shot tracked peak of every graph in its
// set, so the streamed pass really runs under memory pressure. The full-size
// budget rests on the measurement recorded beside denseBudget.
func TestDenseBudgetBelowOneShotPeak(t *testing.T) {
	w := newDenseStreamRefine(config{seed: 7, tiny: true})
	if err := w.setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	budget, err := jobspec.ParseBytes(w.budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, oracle := range w.oracles {
		spec := jobspec.Spec{Random: w.graph, Seed: w.seeds[i]}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		opts := spec.Options()
		opts.Tracker = &memtrack.Tracker{}
		res, err := colorRun(context.Background(), input{oracle: oracle}, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.HostPeakBytes <= budget {
			t.Errorf("graph %d: one-shot peak %d bytes, budget %d does not lie below it", i, res.HostPeakBytes, budget)
		}
	}
}

// runTiny runs one workload at self-test scale and returns its result line.
func runTiny(t *testing.T, workload string, seed, trace string) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", workload, "-seed", seed, "-seconds", "1", "-trace", trace, "-tiny", "-workdir", t.TempDir()}
	if code := run(args, &out); code != 0 {
		t.Fatalf("%s trace %s exited %d:\n%s", workload, trace, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not a result: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %s: %+v", workload, trace, res)
	}
	return res
}

// TestTinyWorkloads runs every workload small, untraced twice and traced
// once: every declared metric must appear with its unit, and colors must
// repeat at a fixed seed.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			first := runTiny(t, w, "7", "0")
			second := runTiny(t, w, "7", "0")
			traced := runTiny(t, w, "7", "1")
			for _, c := range []struct {
				res  result
				defs []metricDef
			}{{first, endToEnd}, {traced, perLayer}} {
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics reported, %d declared", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := c.res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
			}
			for _, name := range []string{"colors", "tracked_peak_bytes"} {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s not repeated at a fixed seed: %v then %v", name, a, b)
				}
			}
		})
	}
}
