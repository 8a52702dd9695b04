package gpusim

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestAllocFreeBudget(t *testing.T) {
	d := NewDevice("test", 1000, 1)
	b1, err := d.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 600 || d.Free() != 400 {
		t.Fatalf("used=%d free=%d", d.Used(), d.Free())
	}
	if _, err := d.Alloc(500); err == nil {
		t.Fatal("overcommit accepted")
	}
	var oom *ErrOutOfMemory
	_, err = d.Alloc(500)
	if !errors.As(err, &oom) {
		t.Fatalf("error type: %v", err)
	}
	if oom.Free != 400 {
		t.Fatalf("oom.Free = %d", oom.Free)
	}
	b2, err := d.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	if d.Peak() != 1000 {
		t.Fatalf("peak = %d", d.Peak())
	}
	b1.Free()
	b2.Free()
	if d.Used() != 0 {
		t.Fatalf("used after free = %d", d.Used())
	}
	// Double free is a no-op.
	b1.Free()
	if d.Used() != 0 {
		t.Fatal("double free corrupted accounting")
	}
	if d.Peak() != 1000 {
		t.Fatal("peak should persist after frees")
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	d := NewDevice("test", 100, 1)
	if _, err := d.Alloc(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestA100Capacity(t *testing.T) {
	d := NewA100()
	if d.Capacity != 40e9 {
		t.Fatalf("capacity = %d", d.Capacity)
	}
}

func TestLaunchChunkedPartitions(t *testing.T) {
	d := NewDevice("test", 0, 3)
	covered := make([]atomic.Int32, 100)
	d.LaunchChunked(100, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

func TestConcurrentAllocAccounting(t *testing.T) {
	d := NewDevice("test", 1<<40, 0)
	d.LaunchChunked(64, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			b, err := d.Alloc(1024)
			if err != nil {
				t.Error(err)
				return
			}
			b.Free()
		}
	})
	if d.Used() != 0 {
		t.Fatalf("used = %d after balanced alloc/free", d.Used())
	}
}
