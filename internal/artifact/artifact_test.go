package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"picasso/internal/bucket"
	"picasso/internal/graph"
	"picasso/internal/pauli"
)

// sampleArtifact builds a fully populated artifact: a random slab with
// coefficients, a coloring over its strings, the coloring's index, a
// checkpoint blob, and a meta envelope.
func sampleArtifact(t *testing.T) *Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	set := pauli.NewSet(30)
	for i := 0; i < 500; i++ {
		set.AppendWithCoeff(pauli.RandomNonIdentity(30, rng), rng.NormFloat64())
	}
	colors := make([]int32, set.Len())
	for i := range colors {
		colors[i] = int32(rng.Intn(40))
	}
	ix, err := bucket.BuildIndex(colors)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Spec:     `{"strings":["XX"],"mode":"normal"}`,
		Set:      set,
		Index:    ix,
		Colors:   colors,
		RunState: []byte(`{"version":1,"streamed":true}`),
		Meta:     []byte(`{"finished_at":"2026-08-08T00:00:00Z"}`),
	}
}

func encodeBytes(t testing.TB, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// equalArtifacts compares every field bit for bit.
func equalArtifacts(a, b *Artifact) bool {
	if a.Spec != b.Spec ||
		!reflect.DeepEqual(a.Colors, b.Colors) ||
		!bytes.Equal(a.RunState, b.RunState) ||
		!bytes.Equal(a.Meta, b.Meta) {
		return false
	}
	if (a.Set == nil) != (b.Set == nil) {
		return false
	}
	if a.Set != nil {
		if a.Set.Qubits() != b.Set.Qubits() || a.Set.Len() != b.Set.Len() ||
			!reflect.DeepEqual(a.Set.Slab(), b.Set.Slab()) ||
			!reflect.DeepEqual(a.Set.Coeffs(), b.Set.Coeffs()) {
			return false
		}
	}
	if (a.Index == nil) != (b.Index == nil) {
		return false
	}
	if a.Index != nil {
		if !reflect.DeepEqual(a.Index.Off, b.Index.Off) || !reflect.DeepEqual(a.Index.Vtx, b.Index.Vtx) {
			return false
		}
	}
	if (a.Graph == nil) != (b.Graph == nil) {
		return false
	}
	if a.Graph != nil && !reflect.DeepEqual(a.Graph, b.Graph) {
		return false
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	want := sampleArtifact(t)
	data := encodeBytes(t, want)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !equalArtifacts(want, got) {
		t.Fatal("decoded artifact differs from the encoded one")
	}
	if !got.Complete() {
		t.Fatal("artifact with index+coloring should be Complete")
	}
	// Deterministic layout: encoding the decoded copy reproduces the file.
	if !bytes.Equal(data, encodeBytes(t, got)) {
		t.Fatal("re-encoding is not bit-identical")
	}
}

func TestRoundTripSparse(t *testing.T) {
	// Spec-only (prep without slab is invalid at the store level but legal
	// in the format) and slab-only artifacts survive too.
	for _, a := range []*Artifact{
		{Spec: "spec-only"},
		{Spec: "slab-only", Set: pauli.RandomSet(16, 32, rand.New(rand.NewSource(1)))},
	} {
		got, err := Decode(bytes.NewReader(encodeBytes(t, a)))
		if err != nil {
			t.Fatalf("%s: %v", a.Spec, err)
		}
		if !equalArtifacts(a, got) {
			t.Fatalf("%s: round trip differs", a.Spec)
		}
		if got.Complete() {
			t.Fatalf("%s: should not be Complete", a.Spec)
		}
	}
}

// TestRoundTripGraph covers the version-2 graph section: a general-graph
// artifact round-trips bit-identically, and a corrupt CSR is rejected on
// both the encode and decode sides.
func TestRoundTripGraph(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := &Artifact{
		Spec:   `{"graph":"csr:4:4:deadbeef","seed":1}`,
		Graph:  g,
		Colors: []int32{0, 1, 0, 1},
	}
	data := encodeBytes(t, want)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !equalArtifacts(want, got) {
		t.Fatal("graph artifact round trip differs")
	}
	if !bytes.Equal(data, encodeBytes(t, got)) {
		t.Fatal("re-encoding is not bit-identical")
	}

	var buf bytes.Buffer
	bad := &Artifact{Spec: "x", Graph: &graph.CSR{N: 2, Offsets: []int64{0, 9, 9}, Adj: []int32{1}}}
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("corrupt graph encoded")
	}
}

// TestDecodeOlderVersion pins backward compatibility: a version-1 file (no
// graph section existed yet) still decodes under the version-2 reader.
func TestDecodeOlderVersion(t *testing.T) {
	data := encodeBytes(t, sampleArtifact(t))
	binary.LittleEndian.PutUint32(data[8:], 1)
	if _, err := Decode(bytes.NewReader(data)); err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
}

func TestRoundTripEmptySet(t *testing.T) {
	a := &Artifact{Spec: "empty", Set: pauli.NewSet(8)}
	got, err := Decode(bytes.NewReader(encodeBytes(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Set == nil || got.Set.Len() != 0 || got.Set.Qubits() != 8 {
		t.Fatalf("empty set mangled: %+v", got.Set)
	}
}

func TestEncodeRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Fatal("nil artifact encoded")
	}
	if err := Encode(&buf, &Artifact{}); err == nil {
		t.Fatal("spec-less artifact encoded")
	}
	if err := Encode(&buf, &Artifact{
		Spec:  "x",
		Index: &bucket.Index{Off: []int64{0, 5}, Vtx: []int32{0}}, // offsets end past Vtx
	}); err == nil {
		t.Fatal("corrupt index encoded")
	}
}

func TestDecodeTruncation(t *testing.T) {
	data := encodeBytes(t, sampleArtifact(t))
	for n := 0; n < len(data); n++ {
		if _, err := Decode(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded cleanly", n, len(data))
		}
	}
}

// TestDecodeBitFlips flips one bit in every byte of the file and requires
// the decoder to either reject the file or decode the exact original
// (flips in padding and reserved fields are invisible by design — they are
// outside every checksummed payload).
func TestDecodeBitFlips(t *testing.T) {
	want := sampleArtifact(t)
	data := encodeBytes(t, want)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		got, err := Decode(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if !equalArtifacts(want, got) {
			t.Fatalf("bit flip at byte %d silently changed the decoded artifact", i)
		}
	}
}

// FuzzArtifactDecode feeds Decode mutated .pic files. Each input first has
// the CRC of every section whose table entry and payload lie inside the
// file rewritten (resealSections), so a mutation reaches the typed section
// decoders — the index section's included — instead of stopping at the
// checksum. Decode must then return an error, or an artifact that
// re-encodes, decodes again and re-encodes to the same bytes; it must
// never panic. The encodings are compared rather than the fields because
// they are canonical and cover every field, where reflect.DeepEqual calls
// a NaN coefficient unequal to itself. The seeds are small valid files —
// one carrying every section kind, a spec-only one and one whose slab has
// no coefficients — because the fuzzer minimizes every new input it keeps,
// and minimizing a copy of sampleArtifact's 20 KB takes longer than a
// short fuzzing run.
func FuzzArtifactDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	withCoeffs := pauli.NewSet(20)
	for i := 0; i < 4; i++ {
		withCoeffs.AppendWithCoeff(pauli.RandomNonIdentity(20, rng), rng.NormFloat64())
	}
	colors := []int32{0, 2, 0, 1}
	ix, err := bucket.BuildIndex(colors)
	if err != nil {
		f.Fatal(err)
	}
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range []*Artifact{
		{Spec: `{"seed":1}`, Set: withCoeffs, Index: ix, Colors: colors,
			RunState: []byte(`{"version":1}`), Meta: []byte(`{}`), Graph: g},
		{Spec: "spec-only"},
		{Spec: "slab-only", Set: pauli.RandomSet(16, 3, rng)},
	} {
		f.Add(encodeBytes(f, a))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		resealSections(data)
		a, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Encode(&first, a); err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		b, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if err := Encode(&second, b); err != nil {
			t.Fatalf("re-decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-decoded artifact differs from the decoded one")
		}
	})
}

// resealSections rewrites, in place, the stored CRC of every section whose
// table entry and payload lie inside data.
func resealSections(data []byte) {
	if len(data) < headerSize {
		return
	}
	le := binary.LittleEndian
	count := min(int(le.Uint32(data[12:16])), maxSections)
	for i := 0; i < count && headerSize+(i+1)*entrySize <= len(data); i++ {
		e := data[headerSize+i*entrySize:]
		off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
		if off <= uint64(len(data)) && length <= uint64(len(data))-off {
			le.PutUint32(e[24:], crc32.ChecksumIEEE(data[off:off+length]))
		}
	}
}

func TestDecodeWrongMagicAndVersion(t *testing.T) {
	data := encodeBytes(t, sampleArtifact(t))

	badMagic := append([]byte(nil), data...)
	badMagic[0] = 'P'
	if _, err := Decode(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic accepted")
	}

	badVersion := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(badVersion[8:], FormatVersion+1)
	if _, err := Decode(bytes.NewReader(badVersion)); err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestDecodeBadSectionTable(t *testing.T) {
	data := encodeBytes(t, sampleArtifact(t))

	// Rewrite the second table entry's kind to an unknown value.
	unknown := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(unknown[headerSize+entrySize:], 99)
	if _, err := Decode(bytes.NewReader(unknown)); err == nil {
		t.Fatal("unknown section kind accepted")
	}

	// Rewrite it to SectionSpec, duplicating the first entry's kind.
	dup := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(dup[headerSize+entrySize:], SectionSpec)
	if _, err := Decode(bytes.NewReader(dup)); err == nil {
		t.Fatal("duplicate section kind accepted")
	}

	// Point a section past the end of the file.
	oob := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(oob[headerSize+8:], uint64(len(data))+8)
	if _, err := Decode(bytes.NewReader(oob)); err == nil {
		t.Fatal("out-of-bounds section accepted")
	}
}

func TestDecodeIndexColoringMismatch(t *testing.T) {
	a := sampleArtifact(t)
	a.Colors = a.Colors[:len(a.Colors)-1] // one vertex short of the index
	ix, err := bucket.BuildIndex(a.Colors[:7])
	if err != nil {
		t.Fatal(err)
	}
	a.Index = ix
	if _, err := Decode(bytes.NewReader(encodeBytes(t, a))); err == nil {
		t.Fatal("index/coloring vertex-count mismatch accepted")
	}
}

func TestAddress(t *testing.T) {
	addr := Address("some canonical spec")
	if !validAddress(addr) {
		t.Fatalf("Address produced %q, which validAddress rejects", addr)
	}
	if Address("a") == Address("b") {
		t.Fatal("distinct specs share an address")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleArtifact(t)
	path, err := store.Put(want)
	if err != nil {
		t.Fatal(err)
	}
	if path != store.Path(Address(want.Spec)) {
		t.Fatalf("Put path %q, want the content address", path)
	}
	if !store.Has(want.Spec) {
		t.Fatal("Has misses a stored artifact")
	}
	got, err := store.Get(want.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !equalArtifacts(want, got) {
		t.Fatal("stored artifact differs after Get")
	}
	if _, err := store.GetAddress(Address(want.Spec)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMisses(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("never stored"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: %v, want ErrNotFound", err)
	}
	for _, addr := range []string{"", "j123", "../../etc/passwd", "jZZZZZZZZZZZZZZZZ"} {
		if _, err := store.GetAddress(addr); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("malformed address %q: %v, want a validation error", addr, err)
		}
	}
}

func TestStoreDetectsTamperingAndRenames(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := sampleArtifact(t)
	path, err := store.Put(a)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte on disk: the CRC check must fail the read.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(a.Spec); err == nil {
		t.Fatal("tampered artifact served")
	}

	// Restore the file under a different (valid-looking) address: the
	// address re-derivation must reject the rename.
	other := Address("a different spec")
	if err := os.WriteFile(store.Path(other), data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := store.GetAddress(other); err == nil {
		t.Fatal("renamed artifact served under the wrong address")
	}
	if _, err := store.Get("a different spec"); err == nil {
		t.Fatal("renamed artifact served for the wrong spec")
	}
}
