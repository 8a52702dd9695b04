package backend

import (
	"context"
	"testing"

	"picasso/internal/graph"
)

// BenchmarkConflictBuild is the before/after comparison of the refactor:
// the historical all-pairs scan (sharesColor per pair) against the
// palette-bucket inverted-index kernel, on a dense random oracle at the
// paper's Normal operating point (P = 12.5% of n, L = 8). The bucketed
// builders touch only the ~L²/P ≈ 5% of pairs that share a candidate color,
// so they must beat the dense scan by a wide margin at n ≥ 10k. The sparse
// shape (P = n, L = 2) gives most rows a few candidates spread over a wide
// id range, so CollectRow keeps discovery order there instead of walking
// its bitset; the Normal shapes walk every row. Each bucketed arm reuses one
// builder, so it measures the arena-pooled steady state.
func BenchmarkConflictBuild(b *testing.B) {
	for _, sh := range []struct {
		name    string
		n, P, L int
	}{
		{"n=2000", 2000, 2000 / 8, 8},
		{"n=10000", 10000, 10000 / 8, 8},
		{"sparse/n=10000", 10000, 10000, 2},
	} {
		o := testOracle{graph.RandomOracle{N: sh.n, P: 0.5, Seed: 42}}
		lists := newTestLists(sh.n, sh.P, sh.L, 9)
		run := func(name string, build func() (*ConflictGraph, Stats, error)) {
			b.Run(name+"/"+sh.name, func(b *testing.B) {
				var edges, calls int64
				for i := 0; i < b.N; i++ {
					cg, st, err := build()
					if err != nil {
						b.Fatal(err)
					}
					edges, calls = cg.Edges, st.PairsTested
				}
				b.ReportMetric(float64(edges), "edges")
				b.ReportMetric(float64(calls), "pairs-tested")
			})
		}
		run("allpairs", func() (*ConflictGraph, Stats, error) {
			return ReferenceAllPairs(o, lists, nil)
		})
		for _, arm := range []struct{ name, backend string }{
			{"bucketed", "sequential"},
			{"bucketed-parallel", "parallel"},
		} {
			bld, err := New(arm.backend, Config{})
			if err != nil {
				b.Fatal(err)
			}
			run(arm.name, func() (*ConflictGraph, Stats, error) {
				return bld.Build(context.Background(), o, lists, nil)
			})
		}
	}
}
