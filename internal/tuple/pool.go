package tuple

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool recycles the tuples the engine materializes for operators that
// consume one row at a time: the row adapter Gets a tuple, copies a
// batch row into it, hands it to Process and releases it, so the
// steady-state consume path allocates no Tuple (and no arena) per row.
// The engine gives every task one Pool. (Output rows are not pooled:
// see Scratch.)
//
// The ownership contract (see also the package doc):
//
//   - Pool.Get returns a tuple holding one reference, owned by the
//     caller.
//   - The engine releases each input tuple after the consuming
//     operator's Process returns. An operator that keeps the *Tuple*
//     beyond Process (windows, joins, side goroutines) must call Retain
//     before Process returns and Release when done.
//   - Numeric/boolean field values read out of a tuple may be kept
//     forever. Strings read from ordinary (arena) string fields are
//     views into the recycled arena and die with the tuple — clone
//     them to keep them; interned symbol names are stable and exempt.
//
// Pool is backed by sync.Pool, so Release is safe from any goroutine;
// in front of it sits a small owner-goroutine stash that ReleaseLocal
// feeds and Get drains, so the adapter's Get→Process→ReleaseLocal cycle
// spins on one hot slot. Get is therefore restricted to the goroutine
// that calls ReleaseLocal (any goroutine when nobody does).
type Pool struct {
	p sync.Pool
	// free is the owner-goroutine stash (see ReleaseLocal).
	free []*Tuple

	// stats gates the get/put accounting the leak/double-free property
	// tests assert on; off (the default) the hot path pays one
	// predictable branch.
	stats      bool
	gets, puts atomic.Uint64
}

// NewPool creates an empty tuple pool.
func NewPool() *Pool {
	pl := &Pool{}
	pl.p.New = func() any { return new(Tuple) }
	return pl
}

// EnableStats turns on get/put accounting (before the pool is used).
func (p *Pool) EnableStats() { p.stats = true }

// Stats returns the cumulative Get count and the count of tuples
// recycled back. When every reference has been dropped and no tuple is
// in flight, gets == puts; the difference is the number of live
// (leaked, if the run is over) tuples.
func (p *Pool) Stats() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}

// freeCap bounds the single-goroutine free lists (Pool's stash,
// Scratch): their owners hold one or two tuples at a time, so a handful
// covers them; the excess goes to sync.Pool or the GC.
const freeCap = 8

// Get returns an empty tuple on the default stream holding one
// reference. The tuple's string arena keeps the capacity of its
// previous life, so appending similar payloads allocates nothing.
func (p *Pool) Get() *Tuple {
	if p.stats {
		p.gets.Add(1)
	}
	var t *Tuple
	if k := len(p.free) - 1; k >= 0 {
		t = p.free[k]
		p.free = p.free[:k]
	} else {
		t = p.p.Get().(*Tuple)
	}
	t.pool = p
	atomic.StoreInt32(&t.refs, 1)
	return t
}

// Retain adds a reference to a pooled tuple, keeping it alive past the
// engine's release after Process. It is a no-op for tuples that did not
// come from a Pool (those are garbage-collected as usual). The caller
// must already hold a reference.
func (t *Tuple) Retain() {
	if t.pool != nil {
		atomic.AddInt32(&t.refs, 1)
	}
}

// Release drops one reference; the last release resets the tuple and
// returns it to its pool. It is a no-op for non-pooled tuples. A caller
// must not touch the tuple after releasing its reference.
func (t *Tuple) Release() {
	if t.pool == nil {
		return
	}
	// Single-holder fast path: with one reference outstanding only the
	// caller can retain or release, so no atomic read-modify-write is
	// needed to reach zero.
	if atomic.LoadInt32(&t.refs) == 1 {
		atomic.StoreInt32(&t.refs, 0)
		t.recycle()
		return
	}
	if atomic.AddInt32(&t.refs, -1) == 0 {
		t.recycle()
	}
}

// ReleaseLocal drops one reference like Release, but a tuple reaching
// zero references goes onto the pool's owner-goroutine stash instead of
// the shared fallback pool — the caller must be on the goroutine that
// calls Get. The engine's row adapter uses it after Process returns.
func (t *Tuple) ReleaseLocal() {
	p := t.pool
	if p == nil {
		return
	}
	if refs := atomic.LoadInt32(&t.refs); refs == 1 {
		atomic.StoreInt32(&t.refs, 0)
	} else if atomic.AddInt32(&t.refs, -1) != 0 {
		return
	}
	t.resetForPool()
	t.pool = nil
	if p.stats {
		p.puts.Add(1)
	}
	if len(p.free) < freeCap {
		p.free = append(p.free, t)
		return
	}
	p.p.Put(t)
}

// recycle resets the tuple and returns it to its pool. The slot array
// holds no pointers and the arena keeps its capacity for reuse; arena
// string views handed out from this life are dead from here on.
func (t *Tuple) recycle() {
	t.resetForPool()
	p := t.pool
	t.pool = nil // a stray double Release is a no-op, not a re-pool
	if p.stats {
		p.puts.Add(1)
	}
	p.p.Put(t)
}

// resetForPool clears everything a recycled tuple must not carry into
// its next life.
func (t *Tuple) resetForPool() {
	t.Reset()
	t.Stream = DefaultStreamID
	t.Ts = time.Time{}
	t.Event = 0
	t.TraceID = 0
	t.TraceOrigin = 0
}

// Scratch is a task-local free list of non-pooled rows, the emit side's
// counterpart of Pool: the engine's Borrow Gets a row, the operator
// fills it, Send copies it into the destination batches and Puts it
// back. A scratch row has one owner and is only ever copied, so
// recycling it touches no reference count. The zero value is ready to
// use; a Scratch must not be shared between goroutines.
type Scratch struct{ free []*Tuple }

// Get returns an empty row on the default stream, owned by the caller
// until it is Put back (a row never returned is simply collected).
func (s *Scratch) Get() *Tuple {
	if k := len(s.free) - 1; k >= 0 {
		t := s.free[k]
		s.free = s.free[:k]
		return t
	}
	return new(Tuple)
}

// Put ends the caller's ownership of t, whatever its origin: a
// non-pooled row is reset and kept for the next Get, a pooled tuple
// gives up the caller's reference.
func (s *Scratch) Put(t *Tuple) {
	if t.pool != nil {
		t.Release()
		return
	}
	if len(s.free) < freeCap {
		t.resetForPool()
		s.free = append(s.free, t)
	}
}
