// Package gpusim simulates a memory-limited accelerator. The paper runs its
// conflict-graph construction kernel on a 40 GB NVIDIA A100; this package
// substitutes a software device with (i) a hard byte budget enforced by
// explicit Alloc/Free with out-of-memory errors, and (ii) kernel launches
// executed as a grid of goroutine workers. Algorithm 3's memory-pressure
// logic — worst-case edge-list sizing, the CSR-on-device vs CSR-on-host
// decision, 4- vs 8-byte offset counters — runs unchanged against the
// simulated budget, so OOM behavior and crossover points are reproduced
// even though wall-clock speed is the host CPU's (ARCHITECTURE.md's
// conflict-construction section describes the device path).
package gpusim

import (
	"fmt"
	"sync"

	"picasso/internal/par"
)

// Device is a simulated accelerator with a fixed memory budget.
type Device struct {
	Name     string
	Capacity int64 // total device memory in bytes
	Workers  int   // simulated parallelism; 0 = GOMAXPROCS

	mu   sync.Mutex
	used int64
	peak int64
}

// ErrOutOfMemory is wrapped by allocation failures.
type ErrOutOfMemory struct {
	Device    string
	Requested int64
	Free      int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("gpusim: %s out of memory: requested %d bytes, %d free",
		e.Device, e.Requested, e.Free)
}

// NewDevice returns a device with the given budget.
func NewDevice(name string, capacity int64, workers int) *Device {
	return &Device{Name: name, Capacity: capacity, Workers: workers}
}

// NewA100 returns a device modeled on the paper's NVIDIA A100 40 GB.
func NewA100() *Device {
	return NewDevice("A100-40GB", 40e9, 0)
}

// Buffer is a device allocation handle.
type Buffer struct {
	dev   *Device
	Bytes int64
	freed bool
}

// Alloc reserves n bytes, failing with *ErrOutOfMemory when the budget is
// exceeded.
func (d *Device) Alloc(n int64) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpusim: negative allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+n > d.Capacity {
		return nil, &ErrOutOfMemory{Device: d.Name, Requested: n, Free: d.Capacity - d.used}
	}
	d.used += n
	if d.used > d.peak {
		d.peak = d.used
	}
	return &Buffer{dev: d, Bytes: n}, nil
}

// Free releases a buffer; double frees are ignored.
func (b *Buffer) Free() {
	if b == nil || b.freed {
		return
	}
	b.freed = true
	b.dev.mu.Lock()
	b.dev.used -= b.Bytes
	b.dev.mu.Unlock()
}

// Used returns the currently allocated bytes.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Free returns the available bytes.
func (d *Device) Free() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Capacity - d.used
}

// Peak returns the maximum bytes ever allocated simultaneously.
func (d *Device) Peak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// LaunchChunked executes kernel(lo, hi, worker) over contiguous thread
// ranges across the device's workers — the simulation of a CUDA kernel
// launch — exposing the worker id for per-"SM" scratch state.
func (d *Device) LaunchChunked(grid int, kernel func(lo, hi, worker int)) {
	par.ForChunks(d.Workers, grid, kernel)
}
