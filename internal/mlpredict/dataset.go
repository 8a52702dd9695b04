package mlpredict

import (
	"context"
	"fmt"
	"math"

	"picasso/internal/core"
	"picasso/internal/graph"
)

// SweepPoint is one grid cell of the §VI parameter sweep: a (P′, α)
// configuration and the quality/work it achieved.
type SweepPoint struct {
	PFrac float64 // palette fraction (the paper's P′/100)
	Alpha float64
	// Colors is the final color count C; MaxConflictEdges the largest
	// per-iteration |Ec| — the two conflicting objectives of Eq. 7.
	Colors           int
	MaxConflictEdges int64
}

// SweepResult is a full grid for one graph.
type SweepResult struct {
	V      int
	E      int64
	Points []SweepPoint
}

// DefaultPFracs mirrors the paper's grid: 1%, 2.5%, 5%, …, 20%.
func DefaultPFracs() []float64 {
	out := []float64{0.01, 0.025}
	for p := 0.05; p <= 0.201; p += 0.025 {
		out = append(out, math.Round(p*1000)/1000)
	}
	return out
}

// DefaultAlphas mirrors the paper's grid: 0.5, 1.0, …, 4.5.
func DefaultAlphas() []float64 {
	var out []float64
	for a := 0.5; a <= 4.51; a += 0.5 {
		out = append(out, math.Round(a*10)/10)
	}
	return out
}

// DefaultBetas mirrors the paper's grid: 0.1, …, 0.9.
func DefaultBetas() []float64 {
	var out []float64
	for b := 0.1; b <= 0.91; b += 0.1 {
		out = append(out, math.Round(b*10)/10)
	}
	return out
}

// Sweep runs Picasso across the (P′, α) grid on one graph (Step 1 of the
// §VI methodology) and records colors and conflict work per cell.
func Sweep(o graph.Oracle, edges int64, pfracs, alphas []float64, seed int64, workers int) (*SweepResult, error) {
	return SweepBackend(o, edges, pfracs, alphas, seed, workers, "")
}

// SweepBackend is Sweep with an explicit conflict-construction backend
// (a backend name; empty selects automatically), so parameter tuning can run
// on the same execution path the tuned configuration will use.
func SweepBackend(o graph.Oracle, edges int64, pfracs, alphas []float64, seed int64, workers int, backendName string) (*SweepResult, error) {
	res := &SweepResult{V: o.NumVertices(), E: edges}
	for _, pf := range pfracs {
		for _, a := range alphas {
			opts := core.Options{PaletteFrac: pf, Alpha: a, Seed: seed, Workers: workers, Backend: backendName}
			r, err := core.Run(context.Background(), o, opts)
			if err != nil {
				return nil, fmt.Errorf("mlpredict: sweep (P=%.3f, α=%.1f): %w", pf, a, err)
			}
			res.Points = append(res.Points, SweepPoint{
				PFrac:            pf,
				Alpha:            a,
				Colors:           r.NumColors,
				MaxConflictEdges: r.MaxConflictEdges,
			})
		}
	}
	return res, nil
}

// OptimalFor returns the grid point minimizing the Eq. 7 objective
// β·C + (1−β)·|Ec| for the given β. Both objectives are min-max normalized
// over the sweep first — C and |Ec| differ by orders of magnitude, so raw
// mixing would let |Ec| dominate at every β (divergence from the paper
// noted in EXPERIMENTS.md).
func (s *SweepResult) OptimalFor(beta float64) SweepPoint {
	minC, maxC := math.Inf(1), math.Inf(-1)
	minE, maxE := math.Inf(1), math.Inf(-1)
	for _, p := range s.Points {
		minC = math.Min(minC, float64(p.Colors))
		maxC = math.Max(maxC, float64(p.Colors))
		minE = math.Min(minE, float64(p.MaxConflictEdges))
		maxE = math.Max(maxE, float64(p.MaxConflictEdges))
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		return (v - lo) / (hi - lo)
	}
	best := s.Points[0]
	bestObj := math.Inf(1)
	for _, p := range s.Points {
		obj := beta*norm(float64(p.Colors), minC, maxC) +
			(1-beta)*norm(float64(p.MaxConflictEdges), minE, maxE)
		if obj < bestObj {
			bestObj = obj
			best = p
		}
	}
	return best
}

// Row is one training example: features (β, |V|, |E|) → targets (P′, α)
// (Steps 2–4).
type Row struct {
	Beta  float64
	V     float64
	E     float64
	PFrac float64
	Alpha float64
}

// BuildRows converts sweeps into the training set: for every β, the optimal
// (P′, α) of each graph becomes a row.
func BuildRows(sweeps []*SweepResult, betas []float64) []Row {
	var rows []Row
	for _, s := range sweeps {
		for _, b := range betas {
			opt := s.OptimalFor(b)
			rows = append(rows, Row{
				Beta: b, V: float64(s.V), E: float64(s.E),
				PFrac: opt.PFrac, Alpha: opt.Alpha,
			})
		}
	}
	return rows
}

// Predictor is the trained model: one forest per output (Step 5).
type Predictor struct {
	pForest *Forest
	aForest *Forest
}

// features maps raw inputs to the model's feature vector. |V| and |E| are
// log-scaled: instance sizes span orders of magnitude.
func features(beta float64, v, e float64) []float64 {
	return []float64{beta, math.Log10(math.Max(v, 1)), math.Log10(math.Max(e, 1))}
}

// TrainPredictor fits the two forests on the rows.
func TrainPredictor(rows []Row, opts ForestOptions) (*Predictor, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("mlpredict: empty training set")
	}
	X := make([][]float64, len(rows))
	yp := make([]float64, len(rows))
	ya := make([]float64, len(rows))
	for i, r := range rows {
		X[i] = features(r.Beta, r.V, r.E)
		yp[i] = r.PFrac
		ya[i] = r.Alpha
	}
	pf, err := FitForest(X, yp, opts)
	if err != nil {
		return nil, err
	}
	optsA := opts
	optsA.Seed ^= 0x5eed
	af, err := FitForest(X, ya, optsA)
	if err != nil {
		return nil, err
	}
	return &Predictor{pForest: pf, aForest: af}, nil
}

// Predict returns the recommended (palette fraction, α) for a new instance
// (Step 6).
func (p *Predictor) Predict(beta float64, vertices int, edges int64) (pfrac, alpha float64) {
	x := features(beta, float64(vertices), float64(edges))
	pfrac = clamp(p.pForest.Predict(x), 0.005, 1)
	alpha = clamp(p.aForest.Predict(x), 0.25, 64)
	return pfrac, alpha
}

// Evaluate computes MAPE and R² of the predictor on held-out rows, jointly
// over both outputs (predictions concatenated, as the paper aggregates).
func (p *Predictor) Evaluate(rows []Row) (mape, r2 float64) {
	var pred, truth []float64
	for _, r := range rows {
		pp, aa := p.Predict(r.Beta, int(r.V), int64(r.E))
		pred = append(pred, pp, aa)
		truth = append(truth, r.PFrac, r.Alpha)
	}
	return MAPE(pred, truth), R2(pred, truth)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
