// Parameter selection: the paper's quality/work tradeoff (§VI) in action.
//
// Picasso's palette fraction P and list factor α trade final colors against
// conflict-graph work (memory and time). Tune sweeps the grid and picks the
// configuration minimizing β·colors + (1−β)·work for your β; the RF
// predictor trained by cmd/trainpredictor generalizes this across
// instances.
//
//	go run ./examples/paramselect
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"picasso"
)

func main() {
	// A molecular instance at CI-friendly scale.
	set, err := picasso.BuildMolecule("H4 1D 631g", 5000)
	if err != nil {
		log.Fatal(err)
	}
	o := picasso.NewPauliOracle(set)
	fmt.Printf("instance: %d Pauli strings on %d qubits\n\n", set.Len(), set.Qubits())

	fmt.Println("β controls the tradeoff: 1 = fewest colors, 0 = least work")
	for _, beta := range []float64{0.9, 0.5, 0.1} {
		opts, err := picasso.Tune(o, beta, 1)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		res, err := picasso.Run(context.Background(), o, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("β=%.1f -> P'=%5.2f%%, α=%.1f: %5d colors, max |Ec| %8d, %v\n",
			beta, opts.PaletteFrac*100, opts.Alpha,
			res.NumColors, res.MaxConflictEdges, time.Since(t0).Round(time.Millisecond))
	}

	fmt.Println("\nThe sweep behind Tune is what trains the paper's random-forest")
	fmt.Println("predictor; see cmd/trainpredictor for the full §VI pipeline.")
}
