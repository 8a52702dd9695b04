package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"picasso/internal/coloring"
	"picasso/internal/core"
	"picasso/internal/graph"
	"picasso/internal/parbase"
	"picasso/internal/pauli"
	"picasso/internal/workload"
)

// instanceEnv bundles the per-instance artifacts shared by the small-set
// comparisons: the string set, the implicit commutation oracle Picasso
// colors, and the explicit CSR the baselines require.
type instanceEnv struct {
	inst workload.Instance
	set  *pauli.Set
	orc  core.PauliOracle
	csr  *graph.CSR // materialized complement graph (baseline input)
}

func buildEnv(cfg Config, inst workload.Instance) (*instanceEnv, error) {
	set, err := inst.Build(cfg.Build)
	if err != nil {
		return nil, err
	}
	orc := core.NewPauliOracle(set)
	return &instanceEnv{inst: inst, set: set, orc: orc, csr: graph.Materialize(orc)}, nil
}

// Table3Row holds average color counts per algorithm (paper Table III).
type Table3Row struct {
	Name     string
	Vertices int
	ColPack  map[coloring.Ordering]float64 // LF, SL, DLF, ID
	Norm     float64                       // Picasso P=12.5%, α=2
	Aggr     float64                       // Picasso P=3%, α=30
	Kokkos   float64                       // SpeculativeEB
	ECL      float64                       // JPLDF
}

// Table3 reproduces the quality comparison: sequential greedy orderings vs
// Picasso's two operating points vs the parallel baselines, averaged over
// cfg.Seeds.
func Table3(cfg Config) ([]Table3Row, error) {
	var rows []Table3Row
	for _, inst := range cfg.limit(workload.SmallSet()) {
		env, err := buildEnv(cfg, inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: table3 %s: %w", inst.Name, err)
		}
		row := Table3Row{
			Name:     inst.Name,
			Vertices: env.set.Len(),
			ColPack:  map[coloring.Ordering]float64{},
		}
		// Deterministic orderings run once; they do not depend on seeds.
		for _, ord := range []coloring.Ordering{coloring.LF, coloring.SL, coloring.DLF, coloring.ID} {
			c, _, err := coloring.Greedy(env.csr, ord, rand.New(rand.NewSource(1)))
			if err != nil {
				return nil, err
			}
			if err := graph.VerifyCSR(env.csr, c); err != nil {
				return nil, fmt.Errorf("experiments: %s/%s invalid: %w", inst.Name, ord, err)
			}
			row.ColPack[ord] = float64(c.NumColors())
		}
		var norm, aggr, kok, ecl []int
		for _, seed := range cfg.Seeds {
			rn, err := core.Run(context.Background(), env.orc, withWorkers(core.Normal(seed), cfg.Workers))
			if err != nil {
				return nil, err
			}
			ra, err := core.Run(context.Background(), env.orc, withWorkers(core.Aggressive(seed), cfg.Workers))
			if err != nil {
				return nil, err
			}
			ck, _ := parbaseEB(env.csr, uint64(seed), cfg.Workers)
			ce, _ := parbaseJP(env.csr, uint64(seed), cfg.Workers)
			norm = append(norm, rn.NumColors)
			aggr = append(aggr, ra.NumColors)
			kok = append(kok, ck)
			ecl = append(ecl, ce)
		}
		row.Norm = meanInt(norm)
		row.Aggr = meanInt(aggr)
		row.Kokkos = meanInt(kok)
		row.ECL = meanInt(ecl)
		rows = append(rows, row)
	}
	return rows, nil
}

func withWorkers(o core.Options, workers int) core.Options {
	o.Workers = workers
	return o
}

// parbaseEB runs the Kokkos-EB stand-in and returns its color count.
func parbaseEB(g *graph.CSR, seed uint64, workers int) (int, int64) {
	c, st := parbase.SpeculativeEB(g, seed, workers)
	return c.NumColors(), st.AuxBytes
}

// parbaseJP runs the ECL-GC-R stand-in and returns its color count.
func parbaseJP(g *graph.CSR, seed uint64, workers int) (int, int64) {
	c, st := parbase.JPLDF(g, seed, workers)
	return c.NumColors(), st.AuxBytes
}

// RenderTable3 prints the quality table.
func RenderTable3(w io.Writer, rows []Table3Row) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Problem\t|V|\tLF\tSL\tDLF\tID\tPicasso Norm\tPicasso Aggr\tKokkos-EB\tECL-GC")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Name, r.Vertices,
			r.ColPack[coloring.LF], r.ColPack[coloring.SL],
			r.ColPack[coloring.DLF], r.ColPack[coloring.ID],
			r.Norm, r.Aggr, r.Kokkos, r.ECL)
	}
	tw.Flush()
}
