package core

import (
	"context"
	"testing"

	"picasso/internal/graph"
)

// planted is the variant tests' yardstick: at P=1 the oracle is the
// complete K-partite graph on the residues mod K, whose only proper
// colorings with K colors are the planted classes — so an equitable run
// must land on exactly K classes of size N/K.
func planted(n, k int) graph.PlantedOracle {
	return graph.PlantedOracle{N: n, K: k, P: 1, Seed: 7}
}

func checkEquitable(t *testing.T, o graph.Oracle, colors graph.Coloring) {
	t.Helper()
	if err := graph.VerifyOracle(o, colors); err != nil {
		t.Fatalf("coloring not proper: %v", err)
	}
	if err := graph.VerifyEquitable(colors); err != nil {
		t.Fatalf("coloring not equitable: %v", err)
	}
}

func TestEquitableColor(t *testing.T) {
	o := planted(300, 5)
	opts := Normal(3)
	opts.Variant = VariantEquitable
	res, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkEquitable(t, o, res.Colors)
	if res.NumColors != 5 {
		t.Fatalf("equitable coloring of complete 5-partite used %d colors, want 5", res.NumColors)
	}
}

func TestEquitableStream(t *testing.T) {
	o := planted(300, 5)
	opts := Normal(11)
	opts.Variant = VariantEquitable
	opts.ShardSize = 64
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	checkEquitable(t, o, res.Colors)
	if res.NumColors != 5 {
		t.Fatalf("streamed equitable run used %d colors, want 5", res.NumColors)
	}
}

func TestEquitableSpeculativeStream(t *testing.T) {
	o := planted(300, 5)
	opts := Normal(13)
	opts.Variant = VariantEquitable
	opts.ShardSize = 48
	opts.Speculate = 3
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	checkEquitable(t, o, res.Colors)
}

func TestEquitableRefine(t *testing.T) {
	o := planted(300, 6)
	opts := Normal(17)
	opts.Variant = VariantEquitable
	opts.ShardSize = 64
	opts.Refine = &RefineOptions{}
	res, err := Run(context.Background(), o, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Refine
	checkEquitable(t, o, res.Colors)
	if st.ColorsAfter > st.ColorsBefore {
		t.Fatalf("refine grew the coloring: %d -> %d", st.ColorsBefore, st.ColorsAfter)
	}
}

func TestEquitableExtendKeepsPrefix(t *testing.T) {
	// PlantedOracle's edge test depends only on (u, v), so the 100-vertex
	// oracle is exactly the 200-vertex one restricted to its prefix.
	prefix := planted(100, 4)
	full := planted(200, 4)
	opts := Normal(23)
	opts.Variant = VariantEquitable
	opts.ShardSize = 32
	pres, err := Run(context.Background(), prefix, streamed(opts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), full, frozen(opts, pres.Colors))
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range pres.Colors {
		if res.Colors[v] != c {
			t.Fatalf("Extend moved frozen vertex %d: %d -> %d", v, c, res.Colors[v])
		}
	}
	if err := graph.VerifyOracle(full, res.Colors); err != nil {
		t.Fatalf("extended coloring not proper: %v", err)
	}
}

func TestVariantValidation(t *testing.T) {
	opts := Normal(1)
	opts.Variant = "equidistant"
	if _, err := Run(context.Background(), planted(20, 2), opts); err == nil {
		t.Fatal("unknown variant accepted")
	}
	// distance2 is accepted by core (the squaring is the input layer's
	// job); the run behaves like the standard variant.
	opts.Variant = VariantDistance2
	if _, err := Run(context.Background(), planted(20, 2), opts); err != nil {
		t.Fatalf("distance2 rejected: %v", err)
	}
}

// TestDistance2ViaSquare exercises the intended distance-2 composition:
// color the square oracle, then check that no two vertices within two hops
// of each other in the base graph share a color.
func TestDistance2ViaSquare(t *testing.T) {
	// A 40-cycle: distance-2 coloring needs colors to differ among each
	// vertex, its neighbors, and its neighbors' neighbors.
	n := 40
	edges := make([][2]int32, n)
	for i := 0; i < n; i++ {
		u, v := int32(i), int32((i+1)%n)
		if u > v {
			u, v = v, u
		}
		edges[i] = [2]int32{u, v}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	sq := graph.NewSquare(g)
	opts := Normal(5)
	opts.Variant = VariantDistance2
	res, err := Run(context.Background(), sq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyOracle(sq, res.Colors); err != nil {
		t.Fatalf("square coloring not proper: %v", err)
	}
	for u := 0; u < n; u++ {
		for d := -2; d <= 2; d++ {
			if d == 0 {
				continue
			}
			v := ((u+d)%n + n) % n
			if res.Colors[u] == res.Colors[v] {
				t.Fatalf("vertices %d and %d are within two hops and share color %d", u, v, res.Colors[u])
			}
		}
	}
}
