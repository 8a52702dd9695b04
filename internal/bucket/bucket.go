// Package bucket implements the bucket-array priority structure at the heart
// of the paper's Algorithm 2: vertices are kept in buckets indexed by their
// current color-list size, the minimum non-empty bucket is tracked, and both
// removal and re-bucketing are O(1) via a position index. This replaces a
// binary heap and removes the log factor from the dynamic list-coloring
// bound (paper §IV-B).
package bucket

import (
	"fmt"

	"picasso/internal/grow"
)

// None is returned by PickFromMin on an empty structure.
const None int32 = -1

// Array is a bucket-array of vertex ids keyed by an integer priority in
// [0, maxKey]. Lower keys are "more constrained" and are popped first.
type Array struct {
	buckets [][]int32 // buckets[k] holds the vertices with key k
	pos     []int32   // pos[v] = index of v within its bucket, -1 if absent
	key     []int32   // key[v] = current bucket of v, -1 if absent
	minKey  int       // lower bound on the smallest non-empty bucket
	size    int
}

// New creates a bucket array for vertex ids [0, n) and keys [0, maxKey].
func New(n, maxKey int) *Array {
	b := &Array{}
	b.Reset(n, maxKey)
	return b
}

// Reset re-initializes the array for n vertices and keys [0, maxKey],
// reusing the backing storage of a previous use where it is large enough.
// This is the pooling hook for steady-state callers (Algorithm 2 runs once
// per iteration); a Reset array is indistinguishable from a New one.
func (b *Array) Reset(n, maxKey int) {
	b.buckets = grow.Slice(b.buckets, maxKey+1)
	for k := range b.buckets {
		b.buckets[k] = b.buckets[k][:0]
	}
	b.pos = grow.Slice(b.pos, n)
	b.key = grow.Slice(b.key, n)
	for i := range b.pos {
		b.pos[i] = -1
		b.key[i] = -1
	}
	b.minKey = maxKey + 1
	b.size = 0
}

// Len returns the number of stored vertices.
func (b *Array) Len() int { return b.size }

// Key returns the current key of v, or -1 if absent.
func (b *Array) Key(v int32) int32 { return b.key[v] }

// Insert adds v with the given key. Inserting a present vertex panics:
// callers must Update instead.
func (b *Array) Insert(v int32, key int) {
	if b.key[v] >= 0 {
		panic(fmt.Sprintf("bucket: vertex %d already present", v))
	}
	if key < 0 || key >= len(b.buckets) {
		panic(fmt.Sprintf("bucket: key %d out of range [0,%d]", key, len(b.buckets)-1))
	}
	b.pos[v] = int32(len(b.buckets[key]))
	b.key[v] = int32(key)
	b.buckets[key] = append(b.buckets[key], v)
	if key < b.minKey {
		b.minKey = key
	}
	b.size++
}

// Remove deletes v in O(1) by swapping with the last element of its bucket.
func (b *Array) Remove(v int32) {
	k := b.key[v]
	if k < 0 {
		panic(fmt.Sprintf("bucket: removing absent vertex %d", v))
	}
	bk := b.buckets[k]
	p := b.pos[v]
	last := int32(len(bk) - 1)
	if p != last {
		moved := bk[last]
		bk[p] = moved
		b.pos[moved] = p
	}
	b.buckets[k] = bk[:last]
	b.pos[v] = -1
	b.key[v] = -1
	b.size--
}

// Update moves v to a new key in O(1).
func (b *Array) Update(v int32, key int) {
	b.Remove(v)
	b.Insert(v, key)
	if key < b.minKey {
		b.minKey = key
	}
}

// MinNonEmpty returns the smallest key holding a vertex, advancing the
// cached lower bound lazily; -1 when empty. The lazy advance gives the
// amortized O(L) scan of Algorithm 2 (keys only grow between pops when
// lists shrink, and minKey only moves forward once buckets drain).
func (b *Array) MinNonEmpty() int {
	if b.size == 0 {
		return -1
	}
	for b.minKey < len(b.buckets) && len(b.buckets[b.minKey]) == 0 {
		b.minKey++
	}
	if b.minKey >= len(b.buckets) {
		// Keys below the cached bound may have been refilled; rescan.
		for k := range b.buckets {
			if len(b.buckets[k]) > 0 {
				b.minKey = k
				return k
			}
		}
		return -1
	}
	return b.minKey
}

// MinBucketSize returns the population of the minimum non-empty bucket
// (0 when empty); callers draw a uniform index from it for PickFromMin.
func (b *Array) MinBucketSize() int {
	k := b.MinNonEmpty()
	if k < 0 {
		return 0
	}
	return len(b.buckets[k])
}

// PickFromMin returns the idx-th vertex of the minimum bucket without
// removing it (idx is taken modulo the bucket length, letting callers pick
// uniformly at random). Returns None when empty.
func (b *Array) PickFromMin(idx int) int32 {
	k := b.MinNonEmpty()
	if k < 0 {
		return None
	}
	bk := b.buckets[k]
	return bk[idx%len(bk)]
}

// CheckInvariants validates internal consistency; used by property tests.
func (b *Array) CheckInvariants() error {
	count := 0
	for k, bk := range b.buckets {
		for i, v := range bk {
			if b.key[v] != int32(k) {
				return fmt.Errorf("bucket: vertex %d in bucket %d but key says %d", v, k, b.key[v])
			}
			if b.pos[v] != int32(i) {
				return fmt.Errorf("bucket: vertex %d pos %d but stored at %d", v, b.pos[v], i)
			}
			count++
		}
	}
	if count != b.size {
		return fmt.Errorf("bucket: size %d but %d stored", b.size, count)
	}
	return nil
}
