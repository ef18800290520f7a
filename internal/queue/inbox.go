package queue

import "runtime"

// Inbox is the consumer-side fan-in over per-producer SPSC rings. The
// engine gives every task one Inbox and binds one Ring per distinct
// producer task, so each (producer, consumer) edge is a private
// single-producer/single-consumer channel — producers never contend
// with each other on an enqueue, which is where a shared MPSC queue
// would serialize them (Section 5.2's queue-access overhead).
//
// The single consumer calls Get/TryGet; it scans the member rings
// round-robin for fairness, and Get yields between scans while every
// ring is empty. The Inbox as a whole keeps the single queue's
// contract: it reports ErrClosed only after every bound ring is closed
// AND drained, so "last producer closes the queue" falls out of each
// producer closing its own ring.
type Inbox[T any] struct {
	rings   []*Ring[T]
	ringCap int
	cursor  int // round-robin scan start; consumer-owned
}

// NewInbox creates an empty inbox whose member rings each hold ringCap
// elements (rounded up to a power of two).
func NewInbox[T any](ringCap int) *Inbox[T] {
	return &Inbox[T]{ringCap: ringCap}
}

// SetRingCap changes the per-ring capacity used by subsequent Bind
// calls; the engine uses it to split one consumer's total buffering
// budget across its producer rings. Rings already bound are unchanged.
func (ib *Inbox[T]) SetRingCap(c int) {
	if c < 1 {
		c = 1
	}
	ib.ringCap = c
}

// Bind adds one producer edge and returns its private ring. Bind is not
// safe for concurrent use: wire all producers before the consumer (or
// any producer) starts, as the engine does at construction time.
func (ib *Inbox[T]) Bind() *Ring[T] {
	r := NewRing[T](ib.ringCap)
	ib.rings = append(ib.rings, r)
	return r
}

// Rings returns the bound producer rings (read-only use).
func (ib *Inbox[T]) Rings() []*Ring[T] { return ib.rings }

// Len returns the total number of queued elements across all rings.
func (ib *Inbox[T]) Len() int {
	n := 0
	for _, r := range ib.rings {
		n += r.Len()
	}
	return n
}

// Get removes and returns the oldest element of some non-empty ring,
// scanning round-robin from the ring after the last hit. It blocks
// while all rings are empty and returns ErrClosed once every ring is
// closed and drained. An inbox with no bound rings is permanently
// empty-and-closed.
func (ib *Inbox[T]) Get() (T, error) {
	for {
		if v, ok, err := ib.TryGet(); ok || err != nil {
			return v, err
		}
		runtime.Gosched()
	}
}

// Ready reports whether TryGet has something to return: some ring holds
// an element, or every ring is closed. It reads only the rings' atomic
// cursors and flags, so any goroutine may call it.
func (ib *Inbox[T]) Ready() bool {
	open := false
	for _, r := range ib.rings {
		if r.Len() > 0 {
			return true
		}
		if !r.Closed() {
			open = true
		}
	}
	return !open
}

// TryGet removes the oldest element of some non-empty ring without
// blocking. The boolean reports whether an element was returned; after
// every ring is closed and drained it returns ErrClosed.
func (ib *Inbox[T]) TryGet() (T, bool, error) {
	var zero T
	n := len(ib.rings)
	open := false
	for k := 0; k < n; k++ {
		idx := ib.cursor + k
		if idx >= n {
			idx -= n
		}
		v, ok, err := ib.rings[idx].TryGet()
		if ok {
			ib.cursor = idx + 1
			if ib.cursor == n {
				ib.cursor = 0
			}
			return v, true, nil
		}
		if err == nil {
			open = true
		}
	}
	if !open {
		return zero, false, ErrClosed
	}
	return zero, false, nil
}

// Close closes every bound ring (engine shutdown/abort path). Blocked
// producers fail with ErrClosed; the consumer drains and then receives
// ErrClosed. Close is idempotent and may be called from any goroutine.
func (ib *Inbox[T]) Close() {
	for _, r := range ib.rings {
		r.Close()
	}
}

// Reopen reopens every bound ring, discarding undelivered elements (see
// Ring.Reopen). Only valid between runs, with no producers or the
// consumer active.
func (ib *Inbox[T]) Reopen() {
	for _, r := range ib.rings {
		r.Reopen()
	}
}

// Stats returns the cumulative successful Put and Get counts across all
// rings, read from atomics (the metrics layer polls this while the
// engine runs).
func (ib *Inbox[T]) Stats() (puts, gets uint64) {
	for _, r := range ib.rings {
		p, g := r.Stats()
		puts += p
		gets += g
	}
	return puts, gets
}
