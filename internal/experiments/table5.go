package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"picasso/internal/core"
	"picasso/internal/workload"
)

// Table5Row compares the sequential (CPU-only) and device-parallel
// (GPU-assisted) Picasso runs (paper Table V): conflict-graph construction
// time dominates, and the parallel path accelerates exactly that phase.
type Table5Row struct {
	Name         string
	Vertices     int
	CPUBuild     time.Duration // cumulative conflict-graph build, sequential
	CPUTotal     time.Duration
	GPUBuild     time.Duration // same phase on the simulated device
	GPUTotal     time.Duration
	BuildSpeedup float64
	TotalSpeedup float64
	SameColoring bool // paper §VII-B1: identical colorings by construction
}

// Table5 reproduces the CPU-vs-GPU comparison with P = 12.5%, α = 2.
func Table5(cfg Config) ([]Table5Row, error) {
	var rows []Table5Row
	seed := cfg.Seeds[0]
	for _, inst := range cfg.limit(workload.SmallSet()) {
		env, err := buildEnv(cfg, inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: table5 %s: %w", inst.Name, err)
		}
		cpuOpts := core.Normal(seed)
		cpuOpts.Workers = 1 // the paper's CPU-only implementation is sequential
		cpuRes, err := core.Run(context.Background(), env.orc, cpuOpts)
		if err != nil {
			return nil, err
		}
		gpuOpts := core.Normal(seed)
		gpuOpts.Device = cfg.device()
		gpuRes, err := core.Run(context.Background(), env.orc, gpuOpts)
		if err != nil {
			return nil, err
		}
		same := true
		for i := range cpuRes.Colors {
			if cpuRes.Colors[i] != gpuRes.Colors[i] {
				same = false
				break
			}
		}
		rows = append(rows, Table5Row{
			Name:         inst.Name,
			Vertices:     env.set.Len(),
			CPUBuild:     cpuRes.BuildTime,
			CPUTotal:     cpuRes.TotalTime,
			GPUBuild:     gpuRes.BuildTime,
			GPUTotal:     gpuRes.TotalTime,
			BuildSpeedup: ratio(cpuRes.BuildTime, gpuRes.BuildTime),
			TotalSpeedup: ratio(cpuRes.TotalTime, gpuRes.TotalTime),
			SameColoring: same,
		})
	}
	return rows, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RenderTable5 prints the speedup table.
func RenderTable5(w io.Writer, rows []Table5Row) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Problem\t|V|\tCPU build\tCPU total\tGPU build\tGPU total\tBuild speedup\tTotal speedup\tSame coloring")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\t%.2fx\t%.2fx\t%v\n",
			r.Name, r.Vertices,
			r.CPUBuild.Round(time.Microsecond), r.CPUTotal.Round(time.Microsecond),
			r.GPUBuild.Round(time.Microsecond), r.GPUTotal.Round(time.Microsecond),
			r.BuildSpeedup, r.TotalSpeedup, r.SameColoring)
	}
	tw.Flush()
}
