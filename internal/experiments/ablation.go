package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"picasso/internal/core"
	"picasso/internal/pauli"
	"picasso/internal/workload"
)

// AblationListRow compares conflict-graph coloring strategies (§IV-B: the
// paper adopts Algorithm 2 because it beat the static orders).
type AblationListRow struct {
	Strategy core.ListStrategy
	Colors   float64 // mean over seeds
	Time     time.Duration
}

// AblationListColoring runs Picasso with each list-coloring strategy on one
// small instance.
func AblationListColoring(cfg Config, instanceName string) ([]AblationListRow, error) {
	inst, err := workload.ByName(instanceName)
	if err != nil {
		return nil, err
	}
	set, err := inst.Build(cfg.Build)
	if err != nil {
		return nil, err
	}
	orc := core.NewPauliOracle(set)
	var rows []AblationListRow
	for _, s := range []core.ListStrategy{core.DynamicBuckets, core.StaticNatural, core.StaticLargest, core.StaticRandom} {
		var colors []int
		var total time.Duration
		for _, seed := range cfg.Seeds {
			opts := core.Normal(seed)
			opts.Strategy = s
			opts.Workers = cfg.Workers
			res, err := core.Run(context.Background(), orc, opts)
			if err != nil {
				return nil, err
			}
			colors = append(colors, res.NumColors)
			total += res.TotalTime
		}
		rows = append(rows, AblationListRow{
			Strategy: s,
			Colors:   meanInt(colors),
			Time:     total / time.Duration(len(cfg.Seeds)),
		})
	}
	return rows, nil
}

// RenderAblationList prints the strategy comparison.
func RenderAblationList(w io.Writer, rows []AblationListRow) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Strategy\tColors (mean)\tTime (mean)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%v\n", r.Strategy, r.Colors, r.Time.Round(time.Microsecond))
	}
	tw.Flush()
}

// EncodingResult compares the encoded AND+popcount anticommutation test with
// the naïve character comparison (§IV-A claims 1.4–2.0× end-to-end).
type EncodingResult struct {
	Pairs        int64
	EncodedTime  time.Duration
	NaiveTime    time.Duration
	Speedup      float64
	Disagreement int64 // must be zero
}

// AblationEncoding measures both tests over all pairs of an instance.
func AblationEncoding(cfg Config, instanceName string) (*EncodingResult, error) {
	inst, err := workload.ByName(instanceName)
	if err != nil {
		return nil, err
	}
	set, err := inst.Build(cfg.Build)
	if err != nil {
		return nil, err
	}
	n := set.Len()
	res := &EncodingResult{Pairs: int64(n) * int64(n-1) / 2}

	t0 := time.Now()
	var accEnc int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if set.Anticommute(i, j) {
				accEnc++
			}
		}
	}
	res.EncodedTime = time.Since(t0)

	strs := make([]pauli.String, n)
	for i := 0; i < n; i++ {
		strs[i] = set.At(i)
	}
	t1 := time.Now()
	var accNaive int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if strs[i].AnticommutesNaive(strs[j]) {
				accNaive++
			}
		}
	}
	res.NaiveTime = time.Since(t1)
	res.Speedup = float64(res.NaiveTime) / float64(maxI64(int64(res.EncodedTime), 1))
	res.Disagreement = accEnc - accNaive
	return res, nil
}

// RenderEncoding prints the encoding ablation.
func RenderEncoding(w io.Writer, r *EncodingResult) {
	fmt.Fprintf(w, "Anticommutation over %s pairs:\n", fmtCount(r.Pairs))
	fmt.Fprintf(w, "  encoded (AND+popcount): %v\n", r.EncodedTime.Round(time.Microsecond))
	fmt.Fprintf(w, "  naive (char compare):   %v\n", r.NaiveTime.Round(time.Microsecond))
	fmt.Fprintf(w, "  speedup: %.2fx (paper: 1.4–2.0x), disagreement: %d\n", r.Speedup, r.Disagreement)
}

// IterativeResult compares the iterative algorithm with the single-pass
// ACK-style variant (§III modification iii: one pass forces either a huge
// palette or many uncolored vertices).
type IterativeResult struct {
	IterativeColors    float64
	SinglePassColors   float64
	SinglePassFallback float64 // mean vertices finished by the fallback
}

// AblationIterative compares multi-round Picasso against MaxIterations=1.
func AblationIterative(cfg Config, instanceName string) (*IterativeResult, error) {
	inst, err := workload.ByName(instanceName)
	if err != nil {
		return nil, err
	}
	set, err := inst.Build(cfg.Build)
	if err != nil {
		return nil, err
	}
	orc := core.NewPauliOracle(set)
	res := &IterativeResult{}
	var iter, single, fb []int
	for _, seed := range cfg.Seeds {
		oi := core.Normal(seed)
		oi.Workers = cfg.Workers
		ri, err := core.Run(context.Background(), orc, oi)
		if err != nil {
			return nil, err
		}
		os := core.Normal(seed)
		os.Workers = cfg.Workers
		os.MaxIterations = 1
		rs, err := core.Run(context.Background(), orc, os)
		if err != nil {
			return nil, err
		}
		iter = append(iter, ri.NumColors)
		single = append(single, rs.NumColors)
		fallback := 0
		if rs.Fallback && len(rs.Iters) > 0 {
			fallback = rs.Iters[len(rs.Iters)-1].Failed
		}
		fb = append(fb, fallback)
	}
	res.IterativeColors = meanInt(iter)
	res.SinglePassColors = meanInt(single)
	res.SinglePassFallback = meanInt(fb)
	return res, nil
}

// RenderIterative prints the iteration ablation.
func RenderIterative(w io.Writer, r *IterativeResult) {
	fmt.Fprintf(w, "Iterative colors: %.1f\n", r.IterativeColors)
	fmt.Fprintf(w, "Single-pass colors: %.1f (%.1f vertices finished by singleton fallback)\n",
		r.SinglePassColors, r.SinglePassFallback)
}
