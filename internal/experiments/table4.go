package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"picasso/internal/coloring"
	"picasso/internal/core"
	"picasso/internal/memtrack"
	"picasso/internal/parbase"
	"picasso/internal/workload"
)

// Table4Row holds peak memory in bytes per algorithm (paper Table IV, which
// reports max resident set size in GB — here the model of package
// memtrack, exact for what it charges; ARCHITECTURE.md lists what it does
// not).
type Table4Row struct {
	Name    string
	ColPack int64
	Norm    int64 // Picasso normal
	Aggr    int64 // Picasso aggressive
	Kokkos  int64
	ECL     int64
}

// Table4 reproduces the memory comparison. Baselines are charged the
// explicit complement CSR plus their auxiliary structures; Picasso is
// charged its actual tracked peak (input strings + color lists + per-
// iteration conflict graph) and never the full graph.
func Table4(cfg Config) ([]Table4Row, error) {
	var rows []Table4Row
	seed := cfg.Seeds[0]
	for _, inst := range cfg.limit(workload.SmallSet()) {
		env, err := buildEnv(cfg, inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: table4 %s: %w", inst.Name, err)
		}
		row := Table4Row{Name: inst.Name}
		n := int64(env.csr.N)

		// ColPack stand-in: CSR + ordering array + colors + forbidden.
		colpackAux := n*4 + n*4 + int64(env.csr.MaxDegree()+1)*4
		row.ColPack = env.csr.Bytes() + colpackAux
		// Exercise the code path so the number corresponds to a real run.
		if _, _, err := coloring.Greedy(env.csr, coloring.LF, rand.New(rand.NewSource(seed))); err != nil {
			return nil, err
		}

		// Picasso: tracked peak including the encoded input strings.
		for _, opts := range []core.Options{core.Normal(seed), core.Aggressive(seed)} {
			var tr memtrack.Tracker
			tr.Alloc(env.set.Bytes()) // the input the algorithm holds
			opts.Tracker = &tr
			opts.Workers = cfg.Workers
			if _, err := core.Run(context.Background(), env.orc, opts); err != nil {
				return nil, err
			}
			if opts.Alpha == 2 {
				row.Norm = tr.Peak()
			} else {
				row.Aggr = tr.Peak()
			}
		}

		// Parallel baselines: CSR + reported aux.
		_, stEB := parbase.SpeculativeEB(env.csr, uint64(seed), cfg.Workers)
		row.Kokkos = env.csr.Bytes() + stEB.AuxBytes
		_, stJP := parbase.JPLDF(env.csr, uint64(seed), cfg.Workers)
		row.ECL = env.csr.Bytes() + stJP.AuxBytes

		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable4 prints the memory table in MB (the paper uses GB; our
// scaled instances sit three orders of magnitude lower).
func RenderTable4(w io.Writer, rows []Table4Row) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Problem\tColPack MB\tPicasso Norm MB\tPicasso Aggr MB\tKokkos-EB MB\tECL-GC-R MB\tColPack/Norm")
	for _, r := range rows {
		ratio := float64(r.ColPack) / float64(maxI64(r.Norm, 1))
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.1fx\n",
			r.Name, mb(r.ColPack), mb(r.Norm), mb(r.Aggr), mb(r.Kokkos), mb(r.ECL), ratio)
	}
	tw.Flush()
}

func mb(b int64) float64 { return float64(b) / 1e6 }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
