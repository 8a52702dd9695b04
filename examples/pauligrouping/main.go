// Pauli grouping: the full quantum-measurement workflow on a molecular
// workload — build a Hamiltonian-plus-ansatz instance, color its
// commutation graph, and report the measurement-cost reduction, which is
// the application the paper optimizes (§II).
//
//	go run ./examples/pauligrouping
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"picasso"
)

func main() {
	// Build a synthetic H6 chain instance grown to ~8000 strings —
	// the scale of the paper's smallest Table II entry. Each Pauli string
	// is one term a quantum computer would otherwise measure separately.
	fmt.Println("building H6 1D sto3g instance...")
	set, err := picasso.BuildMolecule("H6 1D sto3g", 8000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d Pauli strings on %d qubits\n\n", set.Len(), set.Qubits())

	// Compare the two operating points from the paper's Table III.
	for _, cfg := range []struct {
		name string
		opts picasso.Options
	}{
		{"normal (P=12.5%, α=2) ", picasso.Normal(1)},
		{"aggressive (P=3%, α=30)", picasso.Aggressive(1)},
	} {
		var tr picasso.MemoryTracker
		opts := cfg.opts
		opts.Tracker = &tr
		t0 := time.Now()
		res, err := picasso.Run(context.Background(), picasso.NewPauliOracle(set), opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := picasso.VerifyGrouping(set, res.Colors); err != nil {
			log.Fatal(err)
		}
		groups := picasso.Groups(set, res.Colors)
		largest := 0
		for _, g := range groups {
			if len(g) > largest {
				largest = len(g)
			}
		}
		fmt.Printf("%s: %5d groups (%.1f%% of strings, %.1fx measurement reduction)\n",
			cfg.name, len(groups),
			100*float64(len(groups))/float64(set.Len()),
			float64(set.Len())/float64(len(groups)))
		fmt.Printf("  largest group %d strings; %d iterations; %v; peak tracked memory %.1f MB\n",
			largest, len(res.Iters), time.Since(t0).Round(time.Millisecond),
			float64(res.HostPeakBytes)/1e6)
	}

	fmt.Println("\nEvery group is a set of mutually anticommuting strings, so each")
	fmt.Println("group can be rotated into a single measurable unitary (paper Eq. 2).")
}
