package core

import (
	"context"
	"testing"

	"picasso/internal/graph"
)

// TestProgressCallback verifies the per-iteration observer contract: one
// synchronous call per recorded iteration, carrying the same stats that end
// up in Result.Iters, in order.
func TestProgressCallback(t *testing.T) {
	o := graph.RandomOracle{N: 600, P: 0.5, Seed: 11}
	var seen []IterStats
	opts := Normal(3)
	opts.Progress = func(st IterStats) { seen = append(seen, st) }
	res, err := Run(context.Background(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Iters) {
		t.Fatalf("callback fired %d times for %d iterations", len(seen), len(res.Iters))
	}
	for i, st := range seen {
		if st != res.Iters[i] {
			t.Fatalf("iteration %d: callback saw %+v, result has %+v", i, st, res.Iters[i])
		}
	}
	if seen[0].Iteration != 1 {
		t.Fatalf("first callback iteration = %d", seen[0].Iteration)
	}

	// A nil Progress must stay a no-op (the default path).
	opts2 := Normal(3)
	if _, err := Run(context.Background(), o, opts2); err != nil {
		t.Fatal(err)
	}
}
