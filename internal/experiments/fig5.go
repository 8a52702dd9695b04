package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"picasso/internal/core"
	"picasso/internal/graph"
	"picasso/internal/mlpredict"
	"picasso/internal/workload"
)

// Fig5Cell is one heatmap cell of the parameter-sensitivity study (paper
// Fig. 5, on H4 2D 6311g): final colors as a percent of |V|, max conflict
// edges as a percent of |E'|, and total runtime.
type Fig5Cell struct {
	PFrac      float64
	Alpha      float64
	ColorsPct  float64
	MaxConfPct float64
	Time       time.Duration
}

// Fig5Result is the whole heatmap plus its axes.
type Fig5Result struct {
	Instance string
	Vertices int
	Edges    int64
	Cells    []Fig5Cell
}

// Fig5 sweeps the P × α grid on a representative instance (the paper uses
// H4 2D 6311g; pass any Table II name).
func Fig5(cfg Config, instanceName string, pfracs, alphas []float64) (*Fig5Result, error) {
	inst, err := workload.ByName(instanceName)
	if err != nil {
		return nil, err
	}
	set, err := inst.Build(cfg.Build)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5 %s: %w", inst.Name, err)
	}
	orc := core.NewPauliOracle(set)
	edges := graph.CountEdges(orc)
	res := &Fig5Result{Instance: inst.Name, Vertices: set.Len(), Edges: edges}
	seed := cfg.Seeds[0]
	for _, pf := range pfracs {
		for _, a := range alphas {
			opts := core.Options{PaletteFrac: pf, Alpha: a, Seed: seed, Workers: cfg.Workers}
			r, err := core.Run(context.Background(), orc, opts)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Fig5Cell{
				PFrac:      pf,
				Alpha:      a,
				ColorsPct:  100 * float64(r.NumColors) / float64(set.Len()),
				MaxConfPct: 100 * float64(r.MaxConflictEdges) / float64(maxI64(edges, 1)),
				Time:       r.TotalTime,
			})
		}
	}
	return res, nil
}

// DefaultFig5Axes returns the paper's grid (subset for quick runs).
func DefaultFig5Axes(quick bool) (pfracs, alphas []float64) {
	if quick {
		return []float64{0.01, 0.05, 0.15}, []float64{0.5, 2.5, 4.5}
	}
	return []float64{0.01, 0.05, 0.10, 0.15, 0.20}, mlpredict.DefaultAlphas()
}

// RenderFig5 prints the three heatmaps.
func RenderFig5(w io.Writer, res *Fig5Result) {
	fmt.Fprintf(w, "Instance %s: |V| = %d, |E'| = %s\n", res.Instance, res.Vertices, fmtCount(res.Edges))
	tw := newTable(w)
	fmt.Fprintln(tw, "P (%)\tα\tfinal colors (%)\tmax |Ec| (%)\ttime")
	for _, c := range res.Cells {
		fmt.Fprintf(tw, "%.1f\t%.1f\t%.2f\t%.2f\t%v\n",
			c.PFrac*100, c.Alpha, c.ColorsPct, c.MaxConfPct, c.Time.Round(time.Microsecond))
	}
	tw.Flush()
}

// MLResult summarizes the §VI predictor study.
type MLResult struct {
	TrainRows int
	TestRows  int
	MAPE      float64
	R2        float64
	// Example prediction for the first test instance at β = 0.5.
	ExamplePFrac float64
	ExampleAlpha float64
}

// ML reproduces the §VI methodology end to end: sweep the first
// `trainCount` small instances, build the β-dataset, train the forest, and
// evaluate on the remaining instances (the paper trains on five molecules
// and tests on two).
func ML(cfg Config, trainCount int) (*MLResult, error) {
	insts := cfg.limit(workload.SmallSet())
	if trainCount <= 0 || trainCount >= len(insts) {
		trainCount = len(insts) - 1
		if trainCount < 1 {
			return nil, fmt.Errorf("experiments: need at least 2 instances for ML, have %d", len(insts))
		}
	}
	pfracs := []float64{0.01, 0.05, 0.125, 0.2}
	alphas := []float64{0.5, 2, 4.5}
	betas := mlpredict.DefaultBetas()

	sweep := func(inst workload.Instance) (*mlpredict.SweepResult, error) {
		set, err := inst.Build(cfg.Build)
		if err != nil {
			return nil, err
		}
		orc := core.NewPauliOracle(set)
		edges := graph.CountEdges(orc)
		return mlpredict.Sweep(orc, edges, pfracs, alphas, cfg.Seeds[0], cfg.Workers)
	}

	var trainSweeps, testSweeps []*mlpredict.SweepResult
	for i, inst := range insts {
		s, err := sweep(inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: ml sweep %s: %w", inst.Name, err)
		}
		if i < trainCount {
			trainSweeps = append(trainSweeps, s)
		} else {
			testSweeps = append(testSweeps, s)
		}
	}
	trainRows := mlpredict.BuildRows(trainSweeps, betas)
	testRows := mlpredict.BuildRows(testSweeps, betas)
	opts := mlpredict.DefaultForestOptions()
	opts.Trees = 60 // plenty at this dataset size
	pred, err := mlpredict.TrainPredictor(trainRows, opts)
	if err != nil {
		return nil, err
	}
	mape, r2 := pred.Evaluate(testRows)
	res := &MLResult{
		TrainRows: len(trainRows),
		TestRows:  len(testRows),
		MAPE:      mape,
		R2:        r2,
	}
	if len(testSweeps) > 0 {
		res.ExamplePFrac, res.ExampleAlpha = pred.Predict(0.5, testSweeps[0].V, testSweeps[0].E)
	}
	return res, nil
}

// RenderML prints the predictor study summary.
func RenderML(w io.Writer, r *MLResult) {
	fmt.Fprintf(w, "RF predictor: trained on %d rows, tested on %d rows\n", r.TrainRows, r.TestRows)
	fmt.Fprintf(w, "  MAPE = %.3f (paper: 0.19)\n  R²   = %.3f (paper: 0.88)\n", r.MAPE, r.R2)
	fmt.Fprintf(w, "  example prediction (β=0.5): P' = %.1f%%, α = %.2f\n",
		r.ExamplePFrac*100, r.ExampleAlpha)
}
