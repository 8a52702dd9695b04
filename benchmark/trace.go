package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call into a layer, or a stage interval
// read back from timestamps the program returns. Times are offsets from the
// recorder's epoch.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list, -1 for a root
	Job    string        `json:"job,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced path: every method is a no-op returning -1.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its id.
func (r *recorder) begin(name string, parent int, job string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Job: job})
	return len(r.spans) - 1
}

// end closes span id now.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span with known bounds and returns its id.
func (r *recorder) add(name string, start, end time.Time, parent int, job string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Job: job})
	return len(r.spans) - 1
}

// total sums the durations of every span with the given name, optionally
// restricted to one job ("" = all).
func (r *recorder) total(name, job string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && (job == "" || s.Job == job) {
			d += s.End - s.Start
		}
	}
	return d
}

// totalUnder sums the durations of the spans named name whose parent span is
// named parentName.
func (r *recorder) totalUnder(name, parentName string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Parent >= 0 && r.spans[s.Parent].Name == parentName {
			d += s.End - s.Start
		}
	}
	return d
}

// selfRow is one layer's line of the self-time table.
type selfRow struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes returns each span name's summed self time: a span's duration
// minus the part of its interval that its children cover. Overlapping
// children count once (their union is subtracted), and a child reaching
// outside its parent counts only inside it.
func selfTimes(spans []span) []selfRow {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range spans {
		self := (s.End - s.Start) - covered(s, spans, children[i])
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.Self += self
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// printSelfTimes writes the self-time table of one workload's traced pass.
func printSelfTimes(w io.Writer, workload string, rows []selfRow, wall time.Duration) {
	fmt.Fprintf(w, "self time by layer (%s, traced wall %.3f s)\n", workload, wall.Seconds())
	fmt.Fprintf(w, "  %-24s %8s %12s %8s\n", "span", "count", "self_s", "share")
	for _, r := range rows {
		share := 0.0
		if wall > 0 {
			share = r.Self.Seconds() / wall.Seconds()
		}
		fmt.Fprintf(w, "  %-24s %8d %12.6f %7.2f%%\n", r.Name, r.Count, r.Self.Seconds(), 100*share)
	}
}

// writeTrace stores the spans, the self-time table and the environment
// record of a traced run as JSON under dir.
func writeTrace(dir, workload string, seed int64, env envRecord, o *outcome) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	o.spans.mu.Lock()
	doc := struct {
		Workload string    `json:"workload"`
		Env      envRecord `json:"env"`
		Self     []selfRow `json:"self_times"`
		Spans    []span    `json:"spans"`
	}{workload, env, o.selfTimes, o.spans.spans}
	b, err := json.Marshal(doc)
	o.spans.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
