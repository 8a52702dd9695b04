// Package chem is the quantum-chemistry substrate: it builds the Pauli-string
// workloads of the paper's Table II. The paper derives its instances from
// real electronic-structure calculations of hydrogen systems (Hn in 1D/2D/3D
// arrangements, sto-3g/6-31g/6-311g bases); those integrals are not
// available offline, so this package substitutes *synthetic* one- and
// two-electron integrals with physically plausible structure (exponential
// distance decay, deterministic pseudo-random magnitudes, full hermitian
// symmetry) and then applies the *exact* Jordan–Wigner transform. The
// substitution preserves what the coloring pipeline consumes: large sets of
// distinct Pauli strings with O(N^4) scaling and ~50%-dense commutation
// graphs.
package chem

import (
	"fmt"
	"math"
)

// Vec3 is a point in 3-space (atomic positions, arbitrary length units).
type Vec3 struct{ X, Y, Z float64 }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Norm returns the Euclidean length.
func (a Vec3) Norm() float64 { return math.Sqrt(a.X*a.X + a.Y*a.Y + a.Z*a.Z) }

// Dist returns the Euclidean distance between two points.
func Dist(a, b Vec3) float64 { return a.Sub(b).Norm() }

// HydrogenPositions places n hydrogen atoms in a dim-dimensional arrangement
// with unit nearest-neighbor spacing: a chain (dim 1), a near-square sheet
// (dim 2), or a near-cubic lattice (dim 3). This mirrors the paper's
// "1D/2D/3D" geometric variants of each Hn system.
func HydrogenPositions(n, dim int) ([]Vec3, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chem: nonpositive atom count %d", n)
	}
	switch dim {
	case 1:
		pos := make([]Vec3, n)
		for i := range pos {
			pos[i] = Vec3{X: float64(i)}
		}
		return pos, nil
	case 2:
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		pos := make([]Vec3, 0, n)
		for i := 0; len(pos) < n; i++ {
			pos = append(pos, Vec3{X: float64(i % cols), Y: float64(i / cols)})
		}
		return pos, nil
	case 3:
		side := int(math.Ceil(math.Cbrt(float64(n))))
		pos := make([]Vec3, 0, n)
		for i := 0; len(pos) < n; i++ {
			pos = append(pos, Vec3{
				X: float64(i % side),
				Y: float64((i / side) % side),
				Z: float64(i / (side * side)),
			})
		}
		return pos, nil
	}
	return nil, fmt.Errorf("chem: unsupported dimensionality %d", dim)
}
