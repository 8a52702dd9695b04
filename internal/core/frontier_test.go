package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"picasso/internal/graph"
	"picasso/internal/memtrack"
)

// sparseOracle is an explicit sparse edge set. Few frozen vertices touch a
// row, so a single one often decides a slot alone: a scan that skips one
// vertex flips a mark instead of hiding behind a second witness.
type sparseOracle struct {
	n    int
	nbrs map[int32][]int32
	edge map[[2]int32]bool
}

func (s *sparseOracle) add(u, v int32) {
	if u == v {
		return
	}
	s.nbrs[u] = append(s.nbrs[u], v)
	s.nbrs[v] = append(s.nbrs[v], u)
	s.edge[[2]int32{min(u, v), max(u, v)}] = true
}

func (s *sparseOracle) NumVertices() int { return s.n }

func (s *sparseOracle) HasEdge(u, v int) bool {
	return s.edge[[2]int32{int32(min(u, v)), int32(max(u, v))}]
}

// sparseRowOracle adds the batched row kernel, so the cross oracle takes
// its graph.RowOracle path.
type sparseRowOracle struct{ *sparseOracle }

func (s sparseRowOracle) HasEdgeRow(u int, vs []int32, out []bool) {
	for k, v := range vs {
		out[k] = s.HasEdge(u, int(v))
	}
}

// checkFrontierScan runs scanFrontier over a generated frozen range
// [lo, lo+span) and compares its mask with a brute-force reference: slot k
// of row i is marked exactly when it was marked before, or some neighbor of
// the row in the range holds base + its color. Mode bits: 1 maps rows
// through an active table (else through a base offset), 2 gives the oracle
// a row kernel, 4 pre-marks slots; mode>>3 picks 1–3 workers.
func checkFrontierScan(t *testing.T, span, chunk, P, L, m int, base int32, mode uint8, seed int64) {
	t.Helper()
	L = min(L, P)
	gen := rand.New(rand.NewSource(seed))
	lo := gen.Intn(1024)
	hi := lo + span
	n := hi + m + gen.Intn(1024)

	// Frontier colors: in the window, above it, below it, and uncolored.
	colors := make(graph.Coloring, n)
	for v := range colors {
		switch r := gen.Intn(8); {
		case r == 0:
			colors[v] = graph.Uncolored
		case r == 1:
			colors[v] = base + int32(P+gen.Intn(P))
		case r == 2 && base > 0:
			colors[v] = int32(gen.Intn(int(base)))
		default:
			colors[v] = base + int32(gen.Intn(P))
		}
	}

	ar := NewArena()
	cl := assignRandomLists(m, P, L, gen, ar)
	ids := make([]int32, m)
	var active []int32
	rowBase := 0
	if mode&1 != 0 {
		for i, v := range gen.Perm(n)[:m] {
			ids[i] = int32(v)
		}
		active = ids
	} else {
		rowBase = gen.Intn(n - m + 1)
		for i := range ids {
			ids[i] = int32(rowBase + i)
		}
	}

	// A few random neighbors per row, plus the range's ends and both sides
	// of every chunk boundary (the requested chunk and the 4096 floor the
	// scan applies), each adjacent to one row and colored from its list.
	so := &sparseOracle{n: n, nbrs: map[int32][]int32{}, edge: map[[2]int32]bool{}}
	for _, u := range ids {
		for k := gen.Intn(6); k > 0; k-- {
			so.add(u, int32(lo+gen.Intn(span)))
		}
	}
	decisive := []int{lo, hi - 1}
	for _, c := range []int{chunk, max(chunk, 4096)} {
		for b := lo + c; b < hi && c >= 64; b += c {
			decisive = append(decisive, b-1, b)
		}
	}
	for _, v := range decisive {
		i := gen.Intn(m)
		so.add(ids[i], int32(v))
		colors[v] = base + cl.list(i)[gen.Intn(L)]
	}
	var o graph.Oracle = so
	if mode&2 != 0 {
		o = sparseRowOracle{so}
	}

	mask := make([]bool, m*L)
	if mode&4 != 0 {
		for k := range mask {
			mask[k] = gen.Intn(8) == 0
		}
	}
	want := append([]bool(nil), mask...)
	for i, u := range ids {
		held := map[int32]bool{}
		for _, v := range so.nbrs[u] {
			if int(v) >= lo && int(v) < hi && colors[v] != graph.Uncolored {
				held[colors[v]-base] = true
			}
		}
		for k, c := range cl.list(i) {
			want[i*L+k] = want[i*L+k] || held[c]
		}
	}

	tr := &memtrack.Tracker{}
	e := &engine{
		ctx: context.Background(), o: o, opts: &Options{Workers: 1 + int(mode>>3)%3},
		ar: ar, tr: tr, colors: colors, n: n,
	}
	if _, err := e.scanFrontier(newCrossOracle(o, active, rowBase), cl, lo, hi, chunk, base, mask); err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if mask[s] != want[s] {
			i, k := s/L, s%L
			t.Fatalf("span %d chunk %d P %d L %d base %d mode %d: row %d (vertex %d) slot %d (color %d) marked %v, reference %v",
				span, chunk, P, L, base, mode, i, ids[i], k, base+cl.list(i)[k], mask[s], want[s])
		}
	}
	if tr.Current() != 0 {
		t.Fatalf("%d tracked bytes left after the scan", tr.Current())
	}
}

// FuzzFrontierScanMatchesReference pins scanFrontier, the chunked scan
// behind both the fixed-color pass and the speculative repair, to the
// brute-force reference. The corpus covers frozen ranges below, at and
// across the 4096 chunk floor with requested chunks on both sides of it,
// in every mode. Fuzzed shapes fold into span ≤ 12288, chunk ≤ 8192,
// P ≤ 512, L ≤ 16, 1–48 rows and base < 1024.
func FuzzFrontierScanMatchesReference(f *testing.F) {
	for i, c := range []struct{ span, chunk uint16 }{
		{300, 100}, {4096, 1}, {4097, 4095}, {9000, 1000}, {9000, 4500}, {12000, 6000},
	} {
		for mode := uint8(0); mode < 8; mode += 3 {
			f.Add(c.span, c.chunk, uint16(40+30*i), uint8(1+i), uint8(8+4*i), uint16(25*i), mode+uint8(8*i), int64(i)+1)
		}
	}
	f.Fuzz(func(t *testing.T, span, chunk, P uint16, L, rows uint8, base uint16, mode uint8, seed int64) {
		checkFrontierScan(t, 1+int(span)%12288, 1+int(chunk)%8192, 1+int(P)%512,
			1+int(L)%16, 1+int(rows)%48, int32(base%1024), mode, seed)
	})
}

// checkRecolorStrike drives a recolor unit's fixed-color pass the way
// recolor and iterate do. The unit's vertices (ascending, inside the frozen
// range [0, fixedEnd)) are uncolored when the frontier is indexed; earlier
// iterations then recolor `done` of them below the ceiling P, and the next
// iteration's strike must mark slot k of active row i exactly when a
// neighbor of the row in [0, fixedEnd) — frozen, or recolored by the unit —
// holds its color. Vertices past fixedEnd hold colors too and must not
// count. Each recolored vertex, the range's ends and one vertex past it
// decide a slot alone. The frontier index is charged from indexing until
// its release, the pass's mask and recolored-vertex index only while it
// runs, and nothing stays tracked after the release. With row set the
// oracle has a row kernel.
func checkRecolorStrike(t *testing.T, fixedEnd, P, L, m, done, workers int, row bool, seed int64) {
	t.Helper()
	L = min(L, P)
	gen := rand.New(rand.NewSource(seed))
	n := fixedEnd + gen.Intn(64)
	colors := make(graph.Coloring, n)
	for v := range colors {
		switch gen.Intn(8) {
		case 0:
			colors[v] = graph.Uncolored
		case 1:
			colors[v] = int32(P + gen.Intn(P)) // above the window
		default:
			colors[v] = int32(gen.Intn(P))
		}
	}
	unit := make([]int32, 0, m+done)
	for _, v := range gen.Perm(fixedEnd)[:m+done] {
		unit = append(unit, int32(v))
	}
	slices.Sort(unit)
	inUnit := map[int32]bool{}
	for _, v := range unit {
		colors[v] = graph.Uncolored
		inUnit[v] = true
	}
	recolored := map[int32]bool{}
	for _, k := range gen.Perm(m + done)[:done] {
		recolored[unit[k]] = true
	}
	var active, later []int32
	for _, v := range unit {
		if recolored[v] {
			later = append(later, v)
		} else {
			active = append(active, v)
		}
	}

	ar := NewArena()
	cl := assignRandomLists(m, P, L, gen, ar)
	lists := make([][]int32, m)
	for i := range lists {
		lists[i] = slices.Clone(cl.list(i))
	}
	so := &sparseOracle{n: n, nbrs: map[int32][]int32{}, edge: map[[2]int32]bool{}}
	for _, u := range active {
		for k := gen.Intn(6); k > 0; k-- {
			so.add(u, int32(gen.Intn(n)))
		}
	}
	decide := func(v int32) {
		i := gen.Intn(m)
		so.add(active[i], v)
		colors[v] = lists[i][gen.Intn(L)]
	}
	for _, v := range []int32{0, int32(fixedEnd - 1), int32(n - 1)} {
		if !inUnit[v] {
			decide(v)
		}
	}

	var o graph.Oracle = so
	if row {
		o = sparseRowOracle{so}
	}
	tr := &memtrack.Tracker{}
	e := &engine{
		ctx: context.Background(), o: o, opts: &Options{Workers: workers},
		ar: ar, tr: tr, colors: colors, n: n, end: n,
		fixedEnd: fixedEnd, refineCeil: int32(P), unitIDs: unit,
	}
	release := e.indexFrontier()
	indexBytes := ar.frontier.Bytes()
	if tr.Current() != indexBytes {
		t.Fatalf("%d bytes tracked for a %d-byte frontier index", tr.Current(), indexBytes)
	}
	// Earlier iterations recolor `later` below the ceiling.
	for _, v := range later {
		decide(v)
	}
	e.active, e.iter = active, 1
	ownBytes := int64(0)
	if done > 0 {
		e.iter = 2
		ownBytes = int64(P+1)*8 + int64(done)*4
	}

	want := make([]bool, m*L)
	for i, u := range active {
		for k, c := range lists[i] {
			for _, v := range so.nbrs[u] {
				if int(v) < fixedEnd && colors[v] == c {
					want[i*L+k] = true
				}
			}
		}
	}
	if _, err := e.strike(cl); err != nil {
		t.Fatal(err)
	}
	for s, forbidden := range want {
		if ar.forbid[s] != forbidden {
			i, k := s/L, s%L
			t.Fatalf("fixedEnd %d P %d L %d rows %d recolored %d: row %d (vertex %d) slot %d (color %d) marked %v, reference %v",
				fixedEnd, P, L, m, done, i, active[i], k, lists[i][k], ar.forbid[s], forbidden)
		}
	}
	for i := range lists {
		var live []int32
		for k, c := range lists[i] {
			if !want[i*L+k] {
				live = append(live, c)
			}
		}
		if !slices.Equal(cl.list(i), live) {
			t.Fatalf("row %d struck to %v, want %v", i, cl.list(i), live)
		}
	}
	if got, wantPeak := tr.Peak(), indexBytes+int64(m*L)+ownBytes; tr.Current() != indexBytes || got != wantPeak {
		t.Fatalf("after the pass %d bytes tracked (want the index's %d), peak %d (want %d)",
			tr.Current(), indexBytes, got, wantPeak)
	}
	release()
	if tr.Current() != 0 {
		t.Fatalf("%d tracked bytes left after the unit", tr.Current())
	}
}

// FuzzRecolorStrikeMatchesReference pins a recolor unit's fixed-color pass
// (the frontier index held for the unit plus the per-iteration index of the
// unit's recolored vertices) to the brute-force reference. Fuzzed shapes
// fold into a frozen range of up to 4096 vertices beyond the unit,
// P ≤ 512, L ≤ 16, 1–48 active rows, 0–48 recolored unit vertices, 1–3
// workers and (bit 8 of the workers byte) an oracle with a row kernel.
func FuzzRecolorStrikeMatchesReference(f *testing.F) {
	for i, c := range []struct {
		span, P    uint16
		L, m, done uint8
	}{
		{0, 4, 2, 1, 0}, {30, 7, 3, 5, 1}, {500, 60, 4, 20, 12}, {2000, 300, 8, 40, 40}, {4095, 511, 15, 47, 3},
	} {
		f.Add(c.span, c.P, c.L, c.m, c.done, uint8(i), int64(i)+1)
		f.Add(c.span, c.P, c.L, c.m, c.done, uint8(i)|8, int64(i)+1)
	}
	f.Fuzz(func(t *testing.T, span, P uint16, L, m, done, workers uint8, seed int64) {
		rows, later := 1+int(m)%48, int(done)%49
		checkRecolorStrike(t, rows+later+int(span)%4097, 1+int(P)%512, 1+int(L)%16,
			rows, later, 1+int(workers)%3, workers&8 != 0, seed)
	})
}
