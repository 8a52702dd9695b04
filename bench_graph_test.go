// Benchmarks for the general-graph workload: file-parser throughput and a
// queen-graph equitable coloring run, published by CI as BENCH_graph.json
// (the parser microbenchmark itself lives in internal/graph; this file
// covers the end-to-end variant path through the public facade).
package picasso_test

import (
	"context"
	"testing"

	"picasso"
)

// BenchmarkQueenEquitable colors the queen16_16 benchmark under the
// equitable variant and reports the class-size spread alongside the color
// count — the balance the post-pass buys on a real benchmark family.
func BenchmarkQueenEquitable(b *testing.B) {
	g, err := picasso.GraphBenchmark("queen16_16")
	if err != nil {
		b.Fatal(err)
	}
	opts := picasso.Normal(1)
	opts.Variant = picasso.VariantEquitable
	for i := 0; i < b.N; i++ {
		res, err := picasso.Run(context.Background(), g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := picasso.Verify(g, res.Colors); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sizes := make(map[int32]int)
			for _, c := range res.Colors {
				sizes[c]++
			}
			minSize, maxSize := len(res.Colors), 0
			for _, n := range sizes {
				if n < minSize {
					minSize = n
				}
				if n > maxSize {
					maxSize = n
				}
			}
			b.ReportMetric(float64(res.NumColors), "colors")
			b.ReportMetric(float64(maxSize-minSize), "class-spread")
		}
	}
}
