// Package queue provides the bounded communication queues that connect
// BriskStream tasks. A queue carries jumbo tuples (or any payload) from
// producers to a single consumer, blocks producers when full — this is
// the engine's back-pressure mechanism, which eventually slows the spout
// so the system runs at its best achievable stable throughput (Section
// 6.1, footnote 2) — and blocks the consumer when empty.
//
// Ring is a lock-free single-producer/single-consumer ring (atomic
// cursors on separate cache lines, power-of-two capacity,
// spin-then-park waiting); Inbox fans in one Ring per producer on the
// consumer side, so per-edge rings remove all producer-side contention
// (Section 5.2). FreeRing is the nonblocking reverse channel drained
// batches travel back to their producer on.
//
// A Ring.Put racing a Close from a third goroutine can succeed for an
// element the consumer never sees (it stays in the ring). Close a ring
// from its producer after the final Put — as the engine's clean
// shutdown does — and every accepted Put is drained; asynchronous Close
// is the engine's abort path, where dropping in-flight elements is
// intended.
package queue

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Put after Close, and by Get after Close once
// the queue has drained.
var ErrClosed = errors.New("queue: closed")

const (
	// cacheLine separates the producer- and consumer-owned cursors so a
	// Put never invalidates the cache line a concurrent Get is spinning
	// on (false sharing is the dominant cost of a naive atomic ring).
	cacheLine = 64
	// spinLimit bounds the busy-wait phase before a blocked side parks.
	// Spinning covers the common case where the peer is actively running
	// on another core; parking keeps an idle pipeline from burning CPU.
	spinLimit = 128
)

// waiter is the park/wake rendezvous for one blocked goroutine. The
// waking side only touches the channel when the parked flag is visible,
// so the wake path costs a single atomic load while the peer is running.
// The buffered channel tolerates a spurious token: the sleeper re-checks
// the ring state after every wakeup.
type waiter struct {
	parked atomic.Bool
	ch     chan struct{}
}

func newWaiter() *waiter { return &waiter{ch: make(chan struct{}, 1)} }

// wake unparks the waiter if it is parked (or mid-park: the sleeper
// re-validates state after setting the flag, which closes the race).
func (w *waiter) wake() {
	if w.parked.Load() {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// wait is the one blocking strategy every blocking call shares, run
// after a failed nonblocking attempt. round counts the caller's failed
// attempts since it last parked; wait returns the next round. For the
// first spinLimit rounds it only yields. Past them it parks: publish
// the flag, then re-check ready — the waking side checks the flag after
// its own store, so one of the two sides must see the other's — and
// sleep until woken, or until the deadline if it is non-zero. The
// caller retries its attempt (and checks its deadline) after every
// return.
func (w *waiter) wait(round int, ready func() bool, deadline time.Time) int {
	if round < spinLimit {
		runtime.Gosched()
		return round + 1
	}
	w.parked.Store(true)
	if !ready() {
		if deadline.IsZero() {
			<-w.ch
		} else {
			t := time.NewTimer(time.Until(deadline))
			select {
			case <-w.ch:
			case <-t.C:
			}
			t.Stop()
		}
	}
	w.parked.Store(false)
	return 0
}

// Ring is a bounded single-producer/single-consumer FIFO implemented as
// a lock-free ring buffer: one goroutine may call Put/TryPut and one
// goroutine may call Get/TryGet, with no mutex on the hot path. Close
// may be called from any goroutine. The capacity is rounded up to a
// power of two so index wrapping is a mask instead of a division.
//
// Both sides spin briefly, then park on a per-side waiter; this is the
// spin-then-park handoff Section 5.2 of the paper assumes when it prices
// a queue insertion at nanoseconds rather than a syscall.
//
// The Close/drain contract: Put fails with ErrClosed once closed, Get
// drains remaining elements and then returns ErrClosed, and
// back-pressure is preserved (Put blocks while the ring is full, which
// ultimately slows the spout) — with one caveat: a Put
// racing an asynchronous Close from a third goroutine may be accepted
// after the consumer has already drained and exited, leaving the
// element in the ring. Close from the producer goroutine (after its
// final Put) for loss-free shutdown; see the package doc.
type Ring[T any] struct {
	buf  []T
	mask uint64

	closed atomic.Bool

	prod *waiter
	cons *waiter

	// Consumer-owned cache line: the read cursor plus the consumer's
	// stale copy of tail. While cachedTail says elements remain, a Get
	// never touches the producer's line.
	_          [cacheLine]byte
	head       atomic.Uint64 // next read index; written only by the consumer
	cachedTail uint64        // consumer's last-seen tail
	// Producer-owned cache line, symmetric.
	_          [cacheLine - 16]byte
	tail       atomic.Uint64 // next write index; written only by the producer
	cachedHead uint64        // producer's last-seen head
	_          [cacheLine - 16]byte
}

// NewRing creates an SPSC ring with at least the given capacity
// (rounded up to a power of two, minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return newRing[T](capacity, newWaiter())
}

// newRing builds a ring with the supplied consumer-side waiter; an
// Inbox shares one waiter across all its member rings so any producer
// can unpark the single fan-in consumer.
func newRing[T any](capacity int, cons *waiter) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{
		buf:  make([]T, n),
		mask: uint64(n - 1),
		prod: newWaiter(),
		cons: cons,
	}
}

// Cap returns the ring capacity.
func (q *Ring[T]) Cap() int { return len(q.buf) }

// Len returns the current number of queued elements. head is loaded
// first: head never passes tail, so a concurrent observer can see a
// stale (smaller) length but never tail < head underflowing negative.
func (q *Ring[T]) Len() int {
	head := q.head.Load()
	return int(q.tail.Load() - head)
}

// Closed reports whether Close has been called.
func (q *Ring[T]) Closed() bool { return q.closed.Load() }

// Put appends v, blocking while the ring is full. It returns ErrClosed
// if the ring is closed before space becomes available.
func (q *Ring[T]) Put(v T) error {
	for round := 0; ; {
		if ok, err := q.TryPut(v); ok || err != nil {
			return err
		}
		round = q.prod.wait(round, q.putReady, time.Time{})
	}
}

// putReady reports whether a parked producer has something to retry:
// free space, or a close to report.
func (q *Ring[T]) putReady() bool {
	return q.tail.Load()-q.head.Load() < uint64(len(q.buf)) || q.closed.Load()
}

// TryPut appends v without blocking. It reports whether the element was
// enqueued; it returns ErrClosed if the ring is closed.
func (q *Ring[T]) TryPut(v T) (bool, error) {
	if q.closed.Load() {
		return false, ErrClosed
	}
	tail := q.tail.Load()
	if tail-q.cachedHead == uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if tail-q.cachedHead == uint64(len(q.buf)) {
			return false, nil
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	q.cons.wake()
	return true, nil
}

// Get removes and returns the oldest element, blocking while the ring
// is empty. After Close, Get keeps returning queued elements until the
// ring drains and then returns ErrClosed.
func (q *Ring[T]) Get() (T, error) {
	for round := 0; ; {
		if v, ok, err := q.TryGet(); ok || err != nil {
			return v, err
		}
		round = q.cons.wait(round, q.getReady, time.Time{})
	}
}

// getReady reports whether a parked consumer has something to retry:
// an element, or a close to report.
func (q *Ring[T]) getReady() bool {
	return q.tail.Load() != q.head.Load() || q.closed.Load()
}

// TryGet removes the oldest element without blocking. The boolean
// reports whether an element was returned; after Close and drain it
// returns ErrClosed.
func (q *Ring[T]) TryGet() (T, bool, error) {
	var zero T
	head := q.head.Load()
	if q.cachedTail == head {
		q.cachedTail = q.tail.Load()
	}
	if q.cachedTail == head {
		if q.closed.Load() {
			// A final Put sequenced before Close is visible by now; one
			// more tail check decides between drain and ErrClosed.
			if q.cachedTail = q.tail.Load(); q.cachedTail != head {
				return q.TryGet()
			}
			return zero, false, ErrClosed
		}
		return zero, false, nil
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero
	q.head.Store(head + 1)
	q.prod.wake()
	return v, true, nil
}

// Close marks the ring closed. A blocked producer fails with ErrClosed;
// the consumer drains remaining elements and then receives ErrClosed.
// Close is idempotent and may be called from any goroutine.
func (q *Ring[T]) Close() {
	q.closed.Store(true)
	q.prod.wake()
	q.cons.wake()
}

// Reopen discards any undelivered elements and clears the closed flag
// so the ring can carry another run. It must only be called while no
// producer or consumer goroutine is active (the engine calls it between
// runs, before any task starts).
func (q *Ring[T]) Reopen() {
	for {
		if _, ok, _ := q.TryGet(); !ok {
			q.closed.Store(false)
			return
		}
	}
}

// Stats returns the cumulative successful Put and Get counts. The
// monotonic cursors double as the counters — tail is the number of
// elements ever enqueued, head the number ever dequeued — so the hot
// path pays nothing for accounting. head is loaded first, so a live
// reader never observes gets > puts.
func (q *Ring[T]) Stats() (puts, gets uint64) {
	gets = q.head.Load()
	puts = q.tail.Load()
	return puts, gets
}
