package bucket

import (
	"fmt"

	"picasso/internal/grow"
)

// Index is the palette-bucket inverted index color → vertices, in CSR
// layout (Off has NumColors+1 entries into Vtx, bucket c is
// Vtx[Off[c]:Off[c+1]]), and the only such index over a color array. It
// has two lives. Over a finished coloring (BuildIndex) it is persisted:
// artifacts serialize it next to the coloring so a reloading server
// answers group queries — and replays a parent grouping into
// append/refine child jobs — without rebuilding anything. Over a palette
// window of a partial coloring (Rebuild) it is the streaming engine's
// fixed-color index: every frozen vertex appears in exactly one bucket,
// the one of its palette-local color. Vertices within a bucket appear in
// visiting order (ascending ids for BuildIndex), so two indexes over the
// same coloring are bit-identical.
type Index struct {
	Off []int64
	Vtx []int32
}

// BuildIndex builds the inverted index of a complete coloring (color ids
// >= 0; sparse ids are fine — unused colors become empty buckets). An
// uncolored entry is an error: the index represents finished results only.
func BuildIndex(colors []int32) (*Index, error) {
	maxC := int32(-1)
	for v, c := range colors {
		if c < 0 {
			return nil, fmt.Errorf("bucket: vertex %d is uncolored", v)
		}
		if c > maxC {
			maxC = c
		}
	}
	ix := &Index{}
	ix.Rebuild(colors, nil, 0, len(colors), 0, int(maxC)+1)
	return ix, nil
}

// Rebuild refills ix as the index of colors over the palette window
// [base, base+P): bucket c holds every visited vertex v with
// colors[v] = base+c, in visiting order — each v of ids, or each v of
// [lo, hi) when ids is nil. Colors outside the window, uncolored (−1)
// ones included, are skipped. One counting sort reads the color array
// directly, with no id/color staging and no counting scratch: Off counts,
// then serves as the fill cursor, then shifts back into place. Θ(visited
// + P) time; Bytes is the footprint. Storage is ix's own, reused across
// rebuilds.
func (ix *Index) Rebuild(colors, ids []int32, lo, hi int, base int32, P int) {
	n := hi - lo
	if ids != nil {
		n = len(ids)
	}
	vertex := func(k int) int32 {
		if ids == nil {
			return int32(lo + k)
		}
		return ids[k]
	}
	off := grow.Zeroed(ix.Off, P+1)
	for k := 0; k < n; k++ {
		if c := colors[vertex(k)] - base; uint32(c) < uint32(P) {
			off[c+1]++
		}
	}
	for c := 1; c <= P; c++ {
		off[c] += off[c-1]
	}
	ix.Vtx = grow.Slice(ix.Vtx, int(off[P]))
	for k := 0; k < n; k++ {
		v := vertex(k)
		if c := colors[v] - base; uint32(c) < uint32(P) {
			ix.Vtx[off[c]] = v
			off[c]++
		}
	}
	// off[c] now ends bucket c, where bucket c+1 starts.
	copy(off[1:], off[:P])
	off[0] = 0
	ix.Off = off
}

// NumColors returns the color-id range [0, NumColors) the index covers,
// including empty buckets left by sparse ids.
func (ix *Index) NumColors() int { return len(ix.Off) - 1 }

// NumVertices returns the number of indexed vertices.
func (ix *Index) NumVertices() int { return len(ix.Vtx) }

// Bucket returns the vertices holding color c (possibly empty), sharing the
// index's storage.
func (ix *Index) Bucket(c int32) []int32 {
	return ix.Vtx[ix.Off[c]:ix.Off[c+1]]
}

// Groups converts the index into color classes in ascending color order,
// skipping empty buckets — the exact [][]int shape picasso.ColorGroups
// produces from the same coloring, so a rehydrated job serves groups
// bit-for-bit equal to the run that persisted them.
func (ix *Index) Groups() [][]int {
	out := make([][]int, 0, ix.NumColors())
	for c := int32(0); int(c) < ix.NumColors(); c++ {
		b := ix.Bucket(c)
		if len(b) == 0 {
			continue
		}
		g := make([]int, len(b))
		for i, v := range b {
			g[i] = int(v)
		}
		out = append(out, g)
	}
	return out
}

// Colors reconstructs the per-vertex coloring the index was built from.
func (ix *Index) Colors() []int32 {
	colors := make([]int32, len(ix.Vtx))
	for c := 0; c < ix.NumColors(); c++ {
		for _, v := range ix.Vtx[ix.Off[c]:ix.Off[c+1]] {
			colors[v] = int32(c)
		}
	}
	return colors
}

// Validate checks the CSR invariants a deserialized index of a complete
// coloring must satisfy before anything trusts it: Off starts at 0, is
// monotone, ends at len(Vtx), and Vtx is a permutation of [0,
// NumVertices).
func (ix *Index) Validate() error {
	if len(ix.Off) == 0 || ix.Off[0] != 0 {
		return fmt.Errorf("bucket: index offsets must start at 0")
	}
	for c := 1; c < len(ix.Off); c++ {
		if ix.Off[c] < ix.Off[c-1] {
			return fmt.Errorf("bucket: index offsets decrease at color %d", c)
		}
	}
	if ix.Off[len(ix.Off)-1] != int64(len(ix.Vtx)) {
		return fmt.Errorf("bucket: index offsets end at %d, have %d vertices",
			ix.Off[len(ix.Off)-1], len(ix.Vtx))
	}
	seen := make([]bool, len(ix.Vtx))
	for _, v := range ix.Vtx {
		if v < 0 || int(v) >= len(ix.Vtx) || seen[v] {
			return fmt.Errorf("bucket: index vertex %d out of range or duplicated", v)
		}
		seen[v] = true
	}
	return nil
}

// Bytes is the index footprint for cache and budget accounting: live
// entries, not the capacity a rebuilt index may keep from a larger use.
func (ix *Index) Bytes() int64 {
	return int64(len(ix.Off))*8 + int64(len(ix.Vtx))*4
}
