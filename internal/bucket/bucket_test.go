package bucket

import (
	"math/rand"
	"testing"
)

func TestInsertPickRemove(t *testing.T) {
	b := New(10, 5)
	b.Insert(3, 2)
	b.Insert(7, 1)
	b.Insert(5, 2)
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.MinNonEmpty(); got != 1 {
		t.Fatalf("MinNonEmpty = %d", got)
	}
	if v := b.PickFromMin(0); v != 7 {
		t.Fatalf("PickFromMin = %d", v)
	}
	b.Remove(7)
	if got := b.MinNonEmpty(); got != 2 {
		t.Fatalf("after remove, MinNonEmpty = %d", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMovesDown(t *testing.T) {
	b := New(4, 10)
	b.Insert(0, 8)
	b.Insert(1, 9)
	b.Update(1, 3)
	if got := b.MinNonEmpty(); got != 3 {
		t.Fatalf("MinNonEmpty = %d", got)
	}
	if b.Key(1) != 3 {
		t.Fatalf("Key(1) = %d", b.Key(1))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMinRescanAfterRefill(t *testing.T) {
	b := New(4, 10)
	b.Insert(0, 5)
	b.Remove(0)
	// minKey cache has advanced past 5; now refill a lower bucket.
	b.Insert(1, 9)
	if got := b.MinNonEmpty(); got != 9 {
		t.Fatalf("MinNonEmpty = %d, want 9", got)
	}
	b.Insert(2, 1)
	if got := b.MinNonEmpty(); got != 1 {
		t.Fatalf("MinNonEmpty after low insert = %d, want 1", got)
	}
}

func TestEmptyBehavior(t *testing.T) {
	b := New(3, 3)
	if b.MinNonEmpty() != -1 {
		t.Fatal("empty MinNonEmpty")
	}
	if b.PickFromMin(0) != None {
		t.Fatal("empty PickFromMin")
	}
}

func TestPanics(t *testing.T) {
	b := New(3, 3)
	b.Insert(1, 2)
	assertPanics(t, func() { b.Insert(1, 0) }, "double insert")
	assertPanics(t, func() { b.Remove(2) }, "absent remove")
	assertPanics(t, func() { b.Insert(0, 9) }, "key out of range")
}

func assertPanics(t *testing.T, f func(), what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestRandomizedAgainstReference drives the structure with random ops and
// cross-checks MinNonEmpty and membership against a naive map model.
func TestRandomizedAgainstReference(t *testing.T) {
	const n, maxKey = 200, 30
	rng := rand.New(rand.NewSource(42))
	b := New(n, maxKey)
	ref := map[int32]int{}
	for step := 0; step < 20000; step++ {
		v := int32(rng.Intn(n))
		switch rng.Intn(3) {
		case 0: // insert
			if _, ok := ref[v]; !ok {
				k := rng.Intn(maxKey + 1)
				b.Insert(v, k)
				ref[v] = k
			}
		case 1: // remove
			if _, ok := ref[v]; ok {
				b.Remove(v)
				delete(ref, v)
			}
		case 2: // update
			if _, ok := ref[v]; ok {
				k := rng.Intn(maxKey + 1)
				b.Update(v, k)
				ref[v] = k
			}
		}
		if b.Len() != len(ref) {
			t.Fatalf("step %d: size %d vs ref %d", step, b.Len(), len(ref))
		}
		wantMin := -1
		for _, k := range ref {
			if wantMin == -1 || k < wantMin {
				wantMin = k
			}
		}
		if got := b.MinNonEmpty(); got != wantMin {
			t.Fatalf("step %d: MinNonEmpty %d vs ref %d", step, got, wantMin)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPickFromMinCoversBucket(t *testing.T) {
	b := New(10, 2)
	for v := int32(0); v < 5; v++ {
		b.Insert(v, 1)
	}
	seen := map[int32]bool{}
	for i := 0; i < 5; i++ {
		seen[b.PickFromMin(i)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("PickFromMin covered %d of 5", len(seen))
	}
}

func BenchmarkInsertRemove(b *testing.B) {
	arr := New(1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int32(i % 1024)
		arr.Insert(v, i%64)
		arr.Remove(v)
	}
}
