// Quickstart: group a handful of Pauli strings into measurable unitaries.
//
// This is the paper's Fig. 1 workflow on the H2/sto-3g example: 17 Pauli
// strings whose anticommutation cliques compress into ~9 unitary groups.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"picasso"
)

func main() {
	// The 17 Pauli strings of the H2 molecule in the sto-3g basis
	// (4 qubits), as in the paper's Fig. 1.
	set, err := picasso.ParsePauliStrings([]string{
		"IIII", "XYXY", "YYXY", "XXXY", "YXXY", "XYYY", "YYYY", "XXYY",
		"YXYY", "XYXX", "YYXX", "XXXX", "YXXX", "XYYX", "YYYX", "XXYX",
		"YXYX",
	})
	if err != nil {
		log.Fatal(err)
	}

	// Color the commutation graph: its color classes are the groups.
	// Aggressive mode trades extra conflict-graph work for the fewest
	// groups — the right choice for tiny inputs.
	res, err := picasso.Run(context.Background(), picasso.NewPauliOracle(set), picasso.Aggressive(7))
	if err != nil {
		log.Fatal(err)
	}
	if err := picasso.VerifyGrouping(set, res.Colors); err != nil {
		log.Fatal(err) // every group is a mutually anticommuting clique
	}

	groups := picasso.Groups(set, res.Colors)
	fmt.Printf("%d Pauli strings -> %d unitary groups\n\n", set.Len(), len(groups))
	for i, g := range groups {
		fmt.Printf("group %d:", i)
		for _, idx := range g {
			fmt.Printf(" %s", set.At(idx))
		}
		fmt.Println()
	}
}
