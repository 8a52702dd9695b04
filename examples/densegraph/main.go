// Dense graph: color a large ~50%-dense graph that is never materialized.
//
// A 60,000-vertex graph at density 0.5 has ~900 million edges — a CSR of it
// would need ~7.2 GB. Picasso consults the edge oracle on demand and only
// ever stores the per-iteration conflict subgraph, demonstrating the
// paper's headline memory result on a generic (non-quantum) input.
//
//	go run ./examples/densegraph
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"picasso"
)

func main() {
	const (
		n       = 60_000
		density = 0.5
	)
	o := picasso.RandomGraph(n, density, 2024)
	fullEdges := float64(n) * float64(n-1) / 2 * density
	csrBytes := fullEdges * 2 * 4 // two int32 entries per edge
	fmt.Printf("graph: %d vertices, ~%.0fM edges (a CSR would need ~%.1f GB)\n\n",
		n, fullEdges/1e6, csrBytes/1e9)

	var tr picasso.MemoryTracker
	opts := picasso.Normal(1)
	opts.Tracker = &tr

	t0 := time.Now()
	res, err := picasso.Run(context.Background(), o, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)

	fmt.Printf("colored with %d colors in %v\n", res.NumColors, elapsed.Round(time.Millisecond))
	fmt.Printf("iterations: %d\n", len(res.Iters))
	fmt.Printf("largest conflict subgraph: %d edges (%.2f%% of the full graph)\n",
		res.MaxConflictEdges, 100*float64(res.MaxConflictEdges)/fullEdges)
	fmt.Printf("peak tracked memory: %.1f MB — %.0fx below the full CSR\n",
		float64(res.HostPeakBytes)/1e6, csrBytes/float64(res.HostPeakBytes))

	fmt.Println("\nper-iteration profile:")
	for _, it := range res.Iters {
		fmt.Printf("  iter %d: %6d active, palette %5d, |Ec| %9d, failed %5d\n",
			it.Iteration, it.ActiveVertices, it.Palette, it.ConflictEdges, it.Failed)
	}

	// Spot-verify on a sample (full verification is quadratic).
	sample := picasso.RandomGraph(2000, density, 2024)
	resS, err := picasso.Run(context.Background(), sample, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := picasso.Verify(sample, resS.Colors); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nverification on a 2,000-vertex instance of the same family: OK")
}
