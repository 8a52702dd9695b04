package memtrack

import (
	"sync"
	"testing"
)

func TestAllocFreePeak(t *testing.T) {
	var tr Tracker
	tr.Alloc(100)
	tr.Alloc(50)
	if tr.Current() != 150 || tr.Peak() != 150 {
		t.Fatalf("current=%d peak=%d", tr.Current(), tr.Peak())
	}
	tr.Free(120)
	if tr.Current() != 30 {
		t.Fatalf("current=%d", tr.Current())
	}
	if tr.Peak() != 150 {
		t.Fatalf("peak=%d", tr.Peak())
	}
	tr.Alloc(10)
	if tr.Peak() != 150 {
		t.Fatal("peak moved without exceeding it")
	}
}

func TestNilTrackerIsNoop(t *testing.T) {
	var tr *Tracker
	tr.Alloc(10)
	tr.Free(5)
	tr.ResetPeak()
	if tr.Current() != 0 || tr.Peak() != 0 {
		t.Fatal("nil tracker returned nonzero")
	}
	release := tr.Scoped(100)
	release()
}

func TestScoped(t *testing.T) {
	var tr Tracker
	func() {
		defer tr.Scoped(256)()
		if tr.Current() != 256 {
			t.Errorf("scoped current = %d", tr.Current())
		}
	}()
	if tr.Current() != 0 {
		t.Fatalf("after scope current = %d", tr.Current())
	}
	if tr.Peak() != 256 {
		t.Fatalf("peak = %d", tr.Peak())
	}
}

func TestConcurrentSafety(t *testing.T) {
	var tr Tracker
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Alloc(3)
				tr.Free(3)
			}
		}()
	}
	wg.Wait()
	if tr.Current() != 0 {
		t.Fatalf("current = %d", tr.Current())
	}
}

// TestConcurrentReservationsExact pins the accounting contract the
// speculative streaming engine relies on: with two (or more) arenas reserving
// simultaneously, the tracker's peak is the exact combined high water and
// OverBudget reflects it. Every goroutine parks on a barrier while holding
// its reservation, so the combined footprint at that instant is known
// exactly — not merely bounded.
func TestConcurrentReservationsExact(t *testing.T) {
	const lanes = 4
	const bytes = 1 << 20
	var tr Tracker
	tr.SetBudget(bytes*lanes - 1) // one byte short of the combined footprint

	var ready, release sync.WaitGroup
	ready.Add(lanes)
	release.Add(1)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Alloc(bytes)
			ready.Done()
			release.Wait() // hold the reservation until everyone has theirs
			tr.Free(bytes)
		}()
	}
	ready.Wait()
	if got := tr.Current(); got != bytes*lanes {
		t.Fatalf("combined current = %d, want %d", got, bytes*lanes)
	}
	release.Done()
	wg.Wait()

	if tr.Current() != 0 {
		t.Fatalf("current = %d after all frees", tr.Current())
	}
	if tr.Peak() != bytes*lanes {
		t.Fatalf("peak = %d, want exact combined %d", tr.Peak(), bytes*lanes)
	}
	if !tr.OverBudget() || tr.Exceedances() == 0 {
		t.Fatal("combined crossing not recorded")
	}

	// The same schedule under the combined budget must stay clean.
	var ok Tracker
	ok.SetBudget(bytes * lanes)
	var wg2 sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < 100; i++ {
				tr.OverBudget() // concurrent reads must be safe too
				ok.Alloc(bytes / 4)
				ok.Free(bytes / 4)
			}
		}()
	}
	wg2.Wait()
	if ok.OverBudget() {
		t.Fatal("under-budget concurrent traffic reported a crossing")
	}
}

// TestChildAttribution checks the per-lane attribution seam: children meter
// their own unit exactly while every byte also flows into the parent, whose
// peak (and budget verdict) covers the lanes combined.
func TestChildAttribution(t *testing.T) {
	var root Tracker
	root.Alloc(100) // caller baseline
	a, b := root.Child(), root.Child()

	var ready, release, wg sync.WaitGroup
	ready.Add(2)
	release.Add(1)
	for _, c := range []struct {
		tr    *Tracker
		bytes int64
	}{{a, 1000}, {b, 3000}} {
		wg.Add(1)
		go func(tr *Tracker, n int64) {
			defer wg.Done()
			tr.Alloc(n)
			ready.Done()
			release.Wait()
			tr.Free(n)
		}(c.tr, c.bytes)
	}
	ready.Wait()
	if got := root.Current(); got != 4100 {
		t.Fatalf("root current = %d, want 4100", got)
	}
	release.Done()
	wg.Wait()

	if a.Peak() != 1000 || b.Peak() != 3000 {
		t.Fatalf("child peaks = %d/%d, want exact per-lane 1000/3000", a.Peak(), b.Peak())
	}
	if a.Current() != 0 || b.Current() != 0 {
		t.Fatalf("child currents = %d/%d after frees", a.Current(), b.Current())
	}
	if root.Peak() != 4100 {
		t.Fatalf("root peak = %d, want combined 4100", root.Peak())
	}
	if root.Current() != 100 {
		t.Fatalf("root current = %d, want the baseline back", root.Current())
	}

	// A child's ResetPeak (each speculative group resets its lanes') is
	// local: the parent's history survives.
	a.ResetPeak()
	if a.Peak() != 0 || root.Peak() != 4100 {
		t.Fatalf("child ResetPeak leaked: child peak %d, root peak %d", a.Peak(), root.Peak())
	}
	// Child of a nil tracker stays the documented no-op sink.
	var nilTr *Tracker
	c := nilTr.Child()
	c.Alloc(10)
	if c.Peak() != 0 {
		t.Fatal("nil child tracked bytes")
	}
}

func TestBudgetCrossing(t *testing.T) {
	var tr Tracker
	tr.SetBudget(100)
	tr.Alloc(90) // under
	if tr.OverBudget() || tr.Exceedances() != 0 {
		t.Fatal("crossed while under budget")
	}
	tr.Alloc(20) // 110: first crossing
	tr.Alloc(5)  // 115: still over — same episode, not a second crossing
	if got := tr.Exceedances(); got != 1 {
		t.Fatalf("exceedances = %d, want 1", got)
	}
	tr.Free(50)  // 65: back under
	tr.Alloc(40) // 105: second crossing
	if got := tr.Exceedances(); got != 2 {
		t.Fatalf("exceedances = %d, want 2", got)
	}
	if !tr.OverBudget() {
		t.Fatal("peak 115 > budget 100 not reported")
	}
}

func TestBudgetDisarm(t *testing.T) {
	var tr Tracker
	tr.SetBudget(10)
	tr.Alloc(50)
	if !tr.OverBudget() {
		t.Fatal("not over")
	}
	tr.SetBudget(0)
	if tr.OverBudget() {
		t.Fatal("disarmed budget still reported over")
	}
	tr.Alloc(1000)
	if tr.Exceedances() != 1 {
		t.Fatalf("disarmed budget recorded crossing: %d", tr.Exceedances())
	}
}

func TestNilTrackerBudgetNoop(t *testing.T) {
	var tr *Tracker
	tr.SetBudget(10)
	tr.Alloc(100)
	if tr.OverBudget() || tr.Exceedances() != 0 {
		t.Fatal("nil tracker returned nonzero budget state")
	}
}

func TestResetPeakDropsToCurrent(t *testing.T) {
	var tr Tracker
	tr.Alloc(100)
	tr.Free(70) // current 30, peak 100
	tr.ResetPeak()
	if tr.Peak() != 30 || tr.Current() != 30 {
		t.Fatalf("after ResetPeak: current=%d peak=%d", tr.Current(), tr.Peak())
	}
	tr.Alloc(20)
	if tr.Peak() != 50 {
		t.Fatalf("peak after new high water = %d", tr.Peak())
	}
	tr.SetBudget(60)
	if tr.OverBudget() {
		t.Fatal("run-relative peak 50 reported over a 60 budget")
	}
	var nilTr *Tracker
	nilTr.ResetPeak()
}
