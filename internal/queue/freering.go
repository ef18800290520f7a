package queue

import "sync/atomic"

// FreeRing is a minimal nonblocking SPSC ring: the reverse channel of a
// (producer, consumer) edge, flowing drained batches back producer-ward
// so batch memory stays with the edge, on the producer's socket.
//
// It deliberately has no blocking, parking, or close state — a full
// ring means the putter leaves the batch to the GC, and an empty ring
// means the getter allocates a fresh one, so neither side ever waits.
// One goroutine may call TryPut (the consumer parking drained batches)
// and one may call TryGet (the producer refilling); the engine's task
// ownership guarantees both.
type FreeRing[T any] struct {
	buf  []T
	mask uint64

	// Same padded cursor layout as Ring: the consumer-side (TryGet)
	// line and producer-side (TryPut) line never falsely share.
	_          [cacheLine]byte
	head       atomic.Uint64 // next read index; written only by TryGet's caller
	cachedTail uint64
	_          [cacheLine - 16]byte
	tail       atomic.Uint64 // next write index; written only by TryPut's caller
	cachedHead uint64
	_          [cacheLine - 16]byte
}

// NewFreeRing creates a free ring with at least the given capacity
// (rounded up to a power of two, minimum 1).
func NewFreeRing[T any](capacity int) *FreeRing[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FreeRing[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (q *FreeRing[T]) Cap() int { return len(q.buf) }

// Len returns the current element count (approximate under concurrency;
// head is loaded first so it never underflows).
func (q *FreeRing[T]) Len() int {
	head := q.head.Load()
	return int(q.tail.Load() - head)
}

// TryPut appends v without blocking, reporting whether it fit.
func (q *FreeRing[T]) TryPut(v T) bool {
	tail := q.tail.Load()
	if tail-q.cachedHead == uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if tail-q.cachedHead == uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// TryGet removes the oldest element without blocking.
func (q *FreeRing[T]) TryGet() (T, bool) {
	var zero T
	head := q.head.Load()
	if q.cachedTail == head {
		q.cachedTail = q.tail.Load()
		if q.cachedTail == head {
			return zero, false
		}
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero
	q.head.Store(head + 1)
	return v, true
}
