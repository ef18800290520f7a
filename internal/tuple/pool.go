package tuple

import "time"

// Pool is a single-goroutine free list of rows: Get hands one out,
// Tuple.Release takes it back, so a steady Get→fill→Release cycle
// allocates no Tuple (and, its arena keeping capacity, no string
// bytes). The engine's collector keeps one per task for the rows
// Collector.Borrow hands out. A pooled row has exactly one owner at a
// time and is only ever copied, never shared, so there is no reference
// count and no cross-goroutine return path: a Pool and every row it
// hands out belong to one goroutine. The zero value is ready to use.
type Pool struct{ free []*Tuple }

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// freeCap bounds the free list: its owner holds a row or two at a
// time, so a handful covers it and the excess goes to the GC.
const freeCap = 8

// Get returns an empty row on the default stream, owned by the caller
// until its Release (a row never released is simply collected). Its
// string arena keeps the capacity of its previous life, so appending
// similar payloads allocates nothing.
func (p *Pool) Get() *Tuple {
	var t *Tuple
	if k := len(p.free) - 1; k >= 0 {
		t = p.free[k]
		p.free = p.free[:k]
	} else {
		t = new(Tuple)
	}
	t.pool = p
	return t
}

// Release ends the owner's hold on a row that came from a Pool: the row
// is reset and goes back on its pool's free list, and must not be
// touched again. Releasing any other tuple — one built with New, the
// engine's task-local input row, or a row already released — is a
// no-op, so a row only ever returns to the pool it came from, once.
// Like the Pool, Release belongs to the pool's goroutine.
func (t *Tuple) Release() {
	p := t.pool
	if p == nil {
		return
	}
	t.pool = nil
	t.Reset()
	t.Stream = DefaultStreamID
	t.Ts = time.Time{}
	t.Event = 0
	t.TraceID = 0
	t.TraceOrigin = 0
	if len(p.free) < freeCap {
		p.free = append(p.free, t)
	}
}
