package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"picasso/internal/core"
	"picasso/internal/memtrack"
	"picasso/internal/parbase"
	"picasso/internal/workload"
)

// Fig4Point is one Picasso configuration on one instance, normalized to the
// ECL-GC-R baseline of that instance (paper Fig. 4: relative final colors,
// relative memory, relative time, for P ∈ {1..15}%, α = 4.5).
type Fig4Point struct {
	Name      string
	PFrac     float64 // 0 encodes the Kokkos-EB reference point
	RelColors float64
	RelMemory float64
	RelTime   float64
}

// Fig4PFracs is the paper's sweep of palette percentages.
func Fig4PFracs() []float64 { return []float64{0.01, 0.025, 0.05, 0.10, 0.15} }

// Fig4 reproduces the relative comparison: for each small instance, run
// ECL-GC-R (reference), Kokkos-EB, and Picasso at α = 4.5 over the P sweep;
// report colors/memory/time relative to ECL-GC-R.
func Fig4(cfg Config) ([]Fig4Point, error) {
	var points []Fig4Point
	seed := cfg.Seeds[0]
	for _, inst := range cfg.limit(workload.SmallSet()) {
		env, err := buildEnv(cfg, inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig4 %s: %w", inst.Name, err)
		}
		// Reference: ECL-GC-R.
		t0 := time.Now()
		cECL, stECL := parbase.JPLDF(env.csr, uint64(seed), cfg.Workers)
		eclTime := time.Since(t0)
		eclColors := float64(cECL.NumColors())
		eclMem := float64(env.csr.Bytes() + stECL.AuxBytes)

		// Kokkos-EB reference point (PFrac = 0 marker).
		t1 := time.Now()
		cEB, stEB := parbase.SpeculativeEB(env.csr, uint64(seed), cfg.Workers)
		ebTime := time.Since(t1)
		points = append(points, Fig4Point{
			Name:      inst.Name,
			PFrac:     0,
			RelColors: float64(cEB.NumColors()) / eclColors,
			RelMemory: float64(env.csr.Bytes()+stEB.AuxBytes) / eclMem,
			RelTime:   float64(ebTime) / float64(eclTime),
		})

		for _, pf := range Fig4PFracs() {
			opts := core.Options{PaletteFrac: pf, Alpha: 4.5, Seed: seed, Workers: cfg.Workers}
			var tr memtrack.Tracker
			tr.Alloc(env.set.Bytes())
			opts.Tracker = &tr
			res, err := core.Run(context.Background(), env.orc, opts)
			if err != nil {
				return nil, err
			}
			points = append(points, Fig4Point{
				Name:      inst.Name,
				PFrac:     pf,
				RelColors: float64(res.NumColors) / eclColors,
				RelMemory: float64(tr.Peak()) / eclMem,
				RelTime:   float64(res.TotalTime) / float64(eclTime),
			})
		}
	}
	return points, nil
}

// RenderFig4 prints the relative-comparison series.
func RenderFig4(w io.Writer, points []Fig4Point) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Problem\tP (%)\trel. colors\trel. memory\trel. time")
	for _, p := range points {
		label := "Kokkos"
		if p.PFrac > 0 {
			label = fmt.Sprintf("%.1f", p.PFrac*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\n",
			p.Name, label, p.RelColors, p.RelMemory, p.RelTime)
	}
	tw.Flush()
}
