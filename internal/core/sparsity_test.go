package core

import (
	"context"
	"testing"

	"picasso/internal/graph"
)

// Sparse and structured inputs (the paper's §VIII future-work families).

func TestColorChungLuPowerLaw(t *testing.T) {
	o := graph.ChungLuOracle{N: 500, Exponent: 2.5, AvgDeg: 30, Seed: 7}
	res, err := Run(context.Background(), o, Normal(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatal(err)
	}
	// Sparse graphs must not burn dense-level palettes: the color count
	// stays near the maximum degree, far below n.
	maxDeg := 0
	for _, d := range graph.Degrees(o) {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if res.NumColors > maxDeg+1 {
		t.Errorf("%d colors exceeds ∆+1 = %d on a sparse graph", res.NumColors, maxDeg+1)
	}
}

func TestColorRingLattice(t *testing.T) {
	// A fractional palette (Normal mode) spends Θ(n) colors by design; on
	// bounded-degree inputs the right setting is an absolute palette near
	// ∆+1 — the original ACK configuration, which Options.PaletteSize
	// exposes. ∆ = 2K = 6 here.
	o := graph.RingOracle{N: 401, K: 3}
	opts := Options{PaletteSize: 8, Alpha: 30, Seed: 5}
	res, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatal(err)
	}
	// Colors stay O(K) (per-iteration palettes of 8, very few iterations),
	// not O(n).
	if res.NumColors > 24 {
		t.Errorf("ring lattice colored with %d colors", res.NumColors)
	}
	// Normal mode must still be *valid* on sparse inputs.
	resN, err := Run(context.Background(), o, Normal(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, resN.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestColorPlantedKColorable(t *testing.T) {
	o := graph.PlantedOracle{N: 600, K: 6, P: 0.7, Seed: 11}
	res, err := Run(context.Background(), o, Aggressive(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(o, res.Colors); err != nil {
		t.Fatal(err)
	}
	// 6-colorable by construction; randomized palette coloring won't hit
	// 6 but must stay within a small multiple.
	if res.NumColors > 60 {
		t.Errorf("planted 6-colorable graph took %d colors", res.NumColors)
	}
}

func TestSparseConflictGraphsTiny(t *testing.T) {
	// On sparse inputs the conflict graph is a vanishing fraction of the
	// input: the memory argument is even stronger than in the dense case.
	o := graph.ChungLuOracle{N: 800, Exponent: 3, AvgDeg: 12, Seed: 13}
	res, err := Run(context.Background(), o, Normal(7))
	if err != nil {
		t.Fatal(err)
	}
	edges := graph.CountEdges(o)
	if res.MaxConflictEdges > edges/2 {
		t.Errorf("conflict graph %d vs input %d edges", res.MaxConflictEdges, edges)
	}
}
