package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// batchTestOracle is a batch-capable test oracle that records whether the
// kernel actually used the row interface (atomically: the parallel and
// device builders call HasRow from concurrent workers).
type batchTestOracle struct {
	o       graph.Oracle
	rowCall *atomic.Int64
}

func (b batchTestOracle) Len() int          { return b.o.NumVertices() }
func (b batchTestOracle) Has(i, j int) bool { return b.o.HasEdge(i, j) }
func (b batchTestOracle) HasRow(i int, js []int32, out []bool) {
	b.rowCall.Add(1)
	for k, j := range js {
		out[k] = b.o.HasEdge(i, int(j))
	}
}

func TestAsBatchPassesThroughAndAdapts(t *testing.T) {
	o := graph.RandomOracle{N: 50, P: 0.5, Seed: 2}
	batched := batchTestOracle{o: o, rowCall: new(atomic.Int64)}
	if _, ok := AsBatch(batched).(batchTestOracle); !ok {
		t.Fatal("batch-capable oracle was wrapped instead of passed through")
	}
	plain := AsBatch(testOracle{o})
	js := []int32{1, 2, 3, 49}
	out := make([]bool, len(js))
	plain.HasRow(0, js, out)
	for k, j := range js {
		if out[k] != o.HasEdge(0, int(j)) {
			t.Fatalf("adapter HasRow[%d] = %v, HasEdge = %v", j, out[k], o.HasEdge(0, int(j)))
		}
	}
}

func TestBatchOracleMatchesPerPairAcrossBuilders(t *testing.T) {
	// A batch-capable oracle must yield the exact edge set of the per-pair
	// adapter on every builder, and the kernel must actually call HasRow.
	const n = 200
	o := graph.RandomOracle{N: n, P: 0.5, Seed: 31}
	lists := newTestLists(n, 25, 5, 7)
	refCG, _, err := ReferenceAllPairs(testOracle{o}, lists, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedEdges(t, refCG)
	for name, b := range testBuilders(t) {
		calls := new(atomic.Int64)
		cg, _, err := b.Build(context.Background(), batchTestOracle{o: o, rowCall: calls}, lists, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := sortedEdges(t, cg)
		if len(got) != len(want) {
			t.Fatalf("%s: %d edges, want %d", name, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: edge %d is %v, want %v", name, k, got[k], want[k])
			}
		}
		if calls.Load() == 0 {
			t.Errorf("%s: batched oracle's HasRow was never consulted", name)
		}
	}
}

func TestArenaReuseKeepsEdgeSetsIdentical(t *testing.T) {
	// Builds on a warm arena must be indistinguishable from builds on a
	// fresh one, across repeated uses and shrinking/growing instances — the
	// service steady-state contract.
	shapes := []struct {
		n, P, L int
		density float64
		seed    int64
	}{
		{180, 22, 5, 0.5, 3},
		{60, 9, 3, 0.7, 4}, // shrink: pooled buffers larger than needed
		{240, 30, 6, 0.4, 5},
	}
	mk := func(name string, cfg Config) ConflictBuilder {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, backendName := range []string{"sequential", "parallel", "gpu"} {
		arena := NewArena()
		cfg := Config{Workers: 3, Arena: arena}
		fresh := Config{Workers: 3}
		if backendName == "gpu" {
			cfg.Device = gpusim.NewDevice("a", 1<<30, 3)
			fresh.Device = gpusim.NewDevice("f", 1<<30, 3)
		}
		warm := mk(backendName, cfg)
		for round := 0; round < 2; round++ { // second round: arena fully warm
			for si, sh := range shapes {
				o := testOracle{graph.RandomOracle{N: sh.n, P: sh.density, Seed: uint64(sh.seed)}}
				lists := newTestLists(sh.n, sh.P, sh.L, sh.seed)
				cold := mk(backendName, fresh) // a fresh arena per build
				requireSameAsFresh(t, fmt.Sprintf("%s round %d shape %d", backendName, round, si), cold, warm, o, lists)
			}
		}
	}
}

// requireSameAsFresh builds one shape with cold (a builder on a fresh arena)
// and then with warm (one whose arena earlier builds used), and fails unless
// the two builds are indistinguishable: edges, pairs tested, and device and
// host accounting.
func requireSameAsFresh(t *testing.T, label string, cold, warm ConflictBuilder, o EdgeOracle, lists Lists) {
	t.Helper()
	var wantTr, gotTr memtrack.Tracker
	wantCG, wantSt, err := cold.Build(context.Background(), o, lists, &wantTr)
	if err != nil {
		t.Fatalf("%s: fresh: %v", label, err)
	}
	gotCG, gotSt, err := warm.Build(context.Background(), o, lists, &gotTr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, got := sortedEdges(t, wantCG), sortedEdges(t, gotCG)
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: edge %d is %v, want %v", label, k, got[k], want[k])
		}
	}
	if gotSt.PairsTested != wantSt.PairsTested {
		t.Errorf("%s: %d pairs tested, want %d", label, gotSt.PairsTested, wantSt.PairsTested)
	}
	// Device and host accounting must be history-independent: a warm
	// arena's pooled capacities may exceed this build's needs, but every
	// budget charge is length-based, so the Algorithm 3 decisions and both
	// peaks match a fresh run exactly.
	if gotSt.OnDevice != wantSt.OnDevice || gotSt.DevicePeakBytes != wantSt.DevicePeakBytes {
		t.Errorf("%s: device accounting (onDevice %v, peak %d) differs from fresh (%v, %d)",
			label, gotSt.OnDevice, gotSt.DevicePeakBytes, wantSt.OnDevice, wantSt.DevicePeakBytes)
	}
	if gotTr.Peak() != wantTr.Peak() || gotSt.HostBytes != wantSt.HostBytes {
		t.Errorf("%s: host accounting (peak %d, CSR %d) differs from fresh (%d, %d)",
			label, gotTr.Peak(), gotSt.HostBytes, wantTr.Peak(), wantSt.HostBytes)
	}
}
