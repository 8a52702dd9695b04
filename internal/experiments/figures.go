package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"picasso/internal/core"
	"picasso/internal/graph"
	"picasso/internal/workload"
)

// Fig2Row is one point of the input-scaling study (paper Fig. 2): the
// maximum conflicting-edge percentage across iterations, against the
// ceiling the device budget can hold for that instance.
type Fig2Row struct {
	Name         string
	Vertices     int
	Edges        int64   // complement edges |E'|
	MaxConfPct   float64 // 100 · max_ℓ |Ec| / |E'|
	CeilingPct   float64 // 100 · (device edge capacity) / |E'|
	FitsInBudget bool
}

// Fig2 sweeps instances in increasing size with P = 12.5%, α = 2 and
// reports the conflict-edge fraction versus the device ceiling. As size
// grows, |E'| grows quadratically while the budget is flat, so the ceiling
// falls — the paper's black dashed line.
func Fig2(cfg Config, classes []workload.Class) ([]Fig2Row, error) {
	var rows []Fig2Row
	seed := cfg.Seeds[0]
	for _, class := range classes {
		for _, inst := range cfg.limit(instancesOf(class)) {
			set, err := inst.Build(cfg.Build)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig2 %s: %w", inst.Name, err)
			}
			orc := core.NewPauliOracle(set)
			edges := graph.CountEdges(orc)
			opts := core.Normal(seed)
			opts.Workers = cfg.Workers
			res, err := core.Run(context.Background(), orc, opts)
			if err != nil {
				return nil, err
			}
			// Device edge capacity: the worst-case COO of Algorithm 3 at 8
			// bytes per edge, after input and counters are resident.
			inputBytes := set.Bytes() + int64(set.Len())*16
			capEdges := (cfg.DeviceBytes - inputBytes) / 8
			if capEdges < 0 {
				capEdges = 0
			}
			row := Fig2Row{
				Name:       inst.Name,
				Vertices:   set.Len(),
				Edges:      edges,
				MaxConfPct: 100 * float64(res.MaxConflictEdges) / float64(maxI64(edges, 1)),
				CeilingPct: 100 * float64(capEdges) / float64(maxI64(edges, 1)),
			}
			row.FitsInBudget = row.MaxConfPct <= row.CeilingPct
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFig2 prints the scaling series.
func RenderFig2(w io.Writer, rows []Fig2Row) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Problem\t|V|\t|E'|\tmax |Ec| %\tdevice ceiling %\tfits")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.3f\t%.3f\t%v\n",
			r.Name, r.Vertices, fmtCount(r.Edges), r.MaxConfPct, r.CeilingPct, r.FitsInBudget)
	}
	tw.Flush()
}

// Fig3Row is the runtime breakdown of one instance (paper Fig. 3):
// assignment, conflict-graph construction, conflict coloring.
type Fig3Row struct {
	Name       string
	Vertices   int
	Assign     time.Duration
	Build      time.Duration
	ConfColor  time.Duration
	Total      time.Duration
	Iterations int
}

// Fig3 reproduces the component breakdown on the given classes with the
// device-parallel configuration (P = 12.5%, α = 2).
func Fig3(cfg Config, classes []workload.Class) ([]Fig3Row, error) {
	var rows []Fig3Row
	seed := cfg.Seeds[0]
	for _, class := range classes {
		for _, inst := range cfg.limit(instancesOf(class)) {
			set, err := inst.Build(cfg.Build)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig3 %s: %w", inst.Name, err)
			}
			orc := core.NewPauliOracle(set)
			opts := core.Normal(seed)
			opts.Device = cfg.device()
			res, err := core.Run(context.Background(), orc, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{
				Name:       inst.Name,
				Vertices:   set.Len(),
				Assign:     res.AssignTime,
				Build:      res.BuildTime,
				ConfColor:  res.ColorTime,
				Total:      res.TotalTime,
				Iterations: len(res.Iters),
			})
		}
	}
	return rows, nil
}

// RenderFig3 prints the breakdown.
func RenderFig3(w io.Writer, rows []Fig3Row) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Problem\t|V|\tAssignment\tConflict graph\tConflict coloring\tTotal\tIters")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\t%d\n",
			r.Name, r.Vertices,
			r.Assign.Round(time.Microsecond), r.Build.Round(time.Microsecond),
			r.ConfColor.Round(time.Microsecond), r.Total.Round(time.Microsecond),
			r.Iterations)
	}
	tw.Flush()
}
