// Columnar jumbo batches. A Batch is the payload of every jumbo: the
// rows one producer sends one consumer, in the one row payload (see
// payload.go) — one uint64 slot lane per field with a fixed stride and
// a shared byte arena for every row's string fields — plus per-row
// metadata lanes (latency timestamp, event time, trace context) that
// replace the Tuple header fields. Operators that implement the
// engine's BatchOperator interface receive whole batches and iterate
// columns in tight per-kind loops; everything else sees one row at a
// time, copied into a Tuple by the same row copy that forwards a row
// from batch to batch.
//
// A batch's layout (stream, arity, field kinds) is adopted from the
// first row written and stays fixed until Reset; Fits reports whether
// another tuple shares it. Rows are written two ways: Append and
// AppendRowFrom copy a tuple or another batch's row, and put rows —
// the Put methods committed by EndRowFrom, or PutTuple — are the
// engine's one emit path (Collector.Out, and Send over it). Batches
// recycle through per-edge free rings, so the steady-state path
// allocates nothing: a row is a slot store per numeric field plus a
// byte copy per string field into the recycled arena.
//
// A batch is written by one producer and, once sent, only read. A
// stream whose every route delivers each row to all of its edges (one
// edge, or a broadcast) puts the same batch on every edge: Share sets
// its share count, the number of consumers reading it, before the first
// of them can see it. Each consumer drops its hold with Release; the
// last one resets the batch and returns it to the producer. No consumer
// may change a batch it was sent — a shared one has other readers — and
// a pass-through that forwards a whole batch unchanged passes the batch
// itself on (Restream) only when it is the batch's one reader. String
// values read from a batch (Str, Key with a string key) are views into
// the batch arena, valid only while the consumer holds the batch;
// symbol fields are exempt as always.
package tuple

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Batch is one columnar jumbo batch flowing along a (producer,
// consumer) edge.
type Batch struct {
	// Stream is the interned stream id shared by every row (a batch
	// never mixes streams — the engine flushes on a stream change).
	Stream StreamID

	layout
	n    int // filled rows
	rows int // row capacity; also the column stride in slots

	// slots holds MaxFields column lanes of rows entries each; column c
	// row r lives at slots[c*rows+r]. Allocating all MaxFields lanes up
	// front lets one pooled batch be reused across layouts of any
	// arity without reallocation.
	slots []uint64
	// arena backs every string field of every row, recycled with the
	// batch (capacity kept across Reset).
	arena []byte

	// Per-row metadata lanes, replacing the Tuple header fields.
	ts          []time.Time
	event       []int64
	traceID     []uint64
	traceOrigin []int64
	// hasTrace is set when any appended row carries a trace id, so the
	// engine's per-batch trace check is one boolean load.
	hasTrace bool

	// sel is the reusable selection-vector scratch SelScratch hands the
	// batch's one reader.
	sel []int32

	// w is the layout of the row being put, its fields written so far.
	// byPut records that the batch layout was adopted from a put row;
	// misput, with bad set, the layout of the first put row EndRowFrom
	// refused for not matching it.
	w     layout
	byPut bool
	bad   bool
	// refs is the share count: the readers still holding the batch
	// (see Share, Release). 1 from NewBatch and Reset; 0 from the last
	// Release to the Reset after it. It sits in the padding after bad,
	// which keeps a Batch at 256 bytes (four cache lines, so batches in
	// one span share none), on the line the put fields use and the
	// batch's readers do not.
	refs   atomic.Int32
	misput layout
}

// NewBatch creates an empty batch with capacity for rows rows.
func NewBatch(rows int) *Batch {
	if rows <= 0 {
		rows = 1
	}
	b := &Batch{
		rows:        rows,
		slots:       make([]uint64, MaxFields*rows),
		ts:          make([]time.Time, rows),
		event:       make([]int64, rows),
		traceID:     make([]uint64, rows),
		traceOrigin: make([]int64, rows),
	}
	b.refs.Store(1)
	return b
}

// Len returns the number of filled rows.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity.
func (b *Batch) Cap() int { return b.rows }

// Cols returns the number of columns (0 until the first Append).
func (b *Batch) Cols() int { return b.cols }

// Kind returns the kind of column c.
func (b *Batch) Kind(c int) Kind { return b.kinds[c] }

// Full reports whether the batch is at row capacity.
func (b *Batch) Full() bool { return b.n >= b.rows }

// HasTrace reports whether any row carries a trace id.
func (b *Batch) HasTrace() bool { return b.hasTrace }

// Reset clears the batch for reuse, keeping slot, arena and metadata
// capacity. The next Append adopts a fresh layout.
func (b *Batch) Reset() {
	b.n = 0
	b.layout = layout{}
	b.Stream = DefaultStreamID
	b.arena = b.arena[:0]
	b.hasTrace = false
	b.w = layout{}
	b.byPut, b.bad = false, false
	if b.refs.Load() != 1 {
		b.refs.Store(1) // after a last Release; one-row scratch never leaves 1
	}
}

// Share sets the batch's share count: the k consumers it is about to
// be sent to, each of which reads it and then calls Release once. A
// batch has a count of one until then, so one sent to one consumer
// needs no Share. The producer calls it before the first consumer can
// see the batch, and writes no more rows after it.
func (b *Batch) Share(k int) {
	if k > 1 {
		b.refs.Store(int32(k))
	}
}

// Shared reports whether readers besides the caller still hold the
// batch: it was shared and not all of them have released it. A reader
// of a shared batch must not change it.
func (b *Batch) Shared() bool { return b.refs.Load() > 1 }

// Release drops one reader's hold on the batch and reports whether it
// was the last: that reader alone may Reset and recycle the batch, and
// no reader may touch it after its own Release. A release that takes
// the share count below zero — one reader more than the batch was
// shared with, or one reader releasing twice — panics.
func (b *Batch) Release() bool {
	switch n := b.refs.Add(-1); {
	case n > 0:
		return false
	case n < 0:
		panic("tuple: batch released more often than it was shared")
	}
	if poisonReleased {
		b.poison()
	}
	return true
}

// Fits reports whether t shares the batch's layout (stream, arity and
// field kinds). An empty batch fits anything — Append adopts.
func (b *Batch) Fits(t *Tuple) bool {
	return b.n == 0 || t.Stream == b.Stream && b.same(&t.layout)
}

// Append copies one tuple's payload and header metadata into the next
// row. The first append adopts the tuple's layout; callers check Fits
// (and flush on mismatch) before appending to a non-empty batch. The
// batch must not be full.
func (b *Batch) Append(t *Tuple) {
	b.adopt(t.Stream, &t.layout)
	b.copyRow(b.slots[b.n:], b.rows, &b.arena, t.slots[:], 1, t.arena)
	b.commit(t.Ts, t.Event, t.TraceID, t.TraceOrigin)
}

// PutTuple is the Put methods and EndRowFrom for a whole tuple: it
// copies t's fields and header metadata into the next row as a put
// row (Stream comes from ReadyFor). The batch must not be full.
func (b *Batch) PutTuple(t *Tuple) {
	if b.admitPut(&t.layout) {
		b.copyRow(b.slots[b.n:], b.rows, &b.arena, t.slots[:], 1, t.arena)
		b.commit(t.Ts, t.Event, t.TraceID, t.TraceOrigin)
	}
}

// adopt gives an empty batch stream s and layout l, as appended rows.
func (b *Batch) adopt(s StreamID, l *layout) {
	if b.n == 0 {
		b.Stream, b.layout, b.byPut = s, *l, false
	}
}

// commit ends the next row with the given header metadata.
func (b *Batch) commit(ts time.Time, event int64, traceID uint64, traceOrigin int64) {
	r := b.n
	b.ts[r] = ts
	b.event[r] = event
	b.traceID[r] = traceID
	b.traceOrigin[r] = traceOrigin
	if traceID != 0 {
		b.hasTrace = true
	}
	b.n = r + 1
}

// FitsRowFrom reports whether rows of src, re-stamped onto the given
// stream, share the batch's layout — the batch-to-batch analogue of
// Fits. An empty batch fits anything — AppendRowFrom adopts.
func (b *Batch) FitsRowFrom(src *Batch, stream StreamID) bool {
	return b.n == 0 || stream == b.Stream && b.same(&src.layout)
}

// AppendRowFrom copies row r of src (payload and per-row metadata)
// into the next row, re-stamped onto the given stream — a forwarded
// row lands column-to-column without ever materializing a tuple. The
// first append adopts src's layout; callers check FitsRowFrom (and
// flush on mismatch) before appending to a non-empty batch. The batch
// must not be full, and src must not alias b.
func (b *Batch) AppendRowFrom(src *Batch, r int, stream StreamID) {
	b.adopt(stream, &src.layout)
	b.copyRow(b.slots[b.n:], b.rows, &b.arena, src.slots[r:], src.rows, src.arena)
	b.commitFrom(src, r)
}

// commitFrom ends the next row with row r of src's metadata.
func (b *Batch) commitFrom(src *Batch, r int) {
	b.commit(src.ts[r], src.event[r], src.traceID[r], src.traceOrigin[r])
}

// Restream re-stamps every row onto stream s, as AppendRowFrom would
// have: the batch forwarded whole (a pass-through's input, handed over
// by reference) leaves on the stream it was forwarded on. Its layout
// then counts as appended, not put, so ReadyFor refuses put rows and the
// putter starts a fresh batch instead of joining this one. Only a
// batch's one reader may restream it: readers of a Shared batch may be
// reading its stream.
func (b *Batch) Restream(s StreamID) {
	b.Stream = s
	b.byPut = false
}

// ReadyFor readies b for one more row put on stream s and reports
// whether it can take one: an empty batch adopts s; a non-empty one
// needs room and a layout adopted from a row put on s (rows of Append
// or AppendRowFrom may not share the layout past their arity).
func (b *Batch) ReadyFor(s StreamID) bool {
	if b.n == 0 {
		b.Stream = s
		return true
	}
	return b.n < b.rows && b.Stream == s && b.byPut
}

// PutInt writes the next field of the row being put as an int64. The
// Put methods write one row in place, field after field, into a batch
// with room for it (see ReadyFor); EndRowFrom commits it.
func (b *Batch) PutInt(v int64) { b.put(KindInt, uint64(v)) }

// PutFloat writes the next field of the row being put as a float64.
func (b *Batch) PutFloat(v float64) { b.put(KindFloat, math.Float64bits(v)) }

// PutBool writes the next field of the row being put as a bool.
func (b *Batch) PutBool(v bool) { b.put(KindBool, boolSlot(v)) }

// PutSym writes the next field of the row being put as a symbol.
func (b *Batch) PutSym(s Sym) { b.put(KindSym, uint64(s)) }

// PutStr writes the next field of the row being put as a string,
// copied into the batch arena.
func (b *Batch) PutStr(s string) { b.put(KindStr, appendStr(&b.arena, s)) }

// PutStrBytes is PutStr from a byte slice, copied into the arena.
func (b *Batch) PutStrBytes(s []byte) { b.PutStr(bytesView(s)) }

func (b *Batch) put(k Kind, v uint64) {
	c := b.w.cols
	b.w.kinds[c] = k // past MaxFields: index out of range
	b.slots[c*b.rows+b.n] = v
	b.w.cols = c + 1
}

// EndRowFrom commits the row being put, with row r of src's metadata —
// latency timestamp, event time and trace context — as StampMeta
// stamps a tuple. The first row of a batch fixes its layout (Stream
// comes from ReadyFor). A row whose kinds differ from that layout is
// not stored: the batch keeps it out and reports it through PutErr.
func (b *Batch) EndRowFrom(src *Batch, r int) {
	ok := b.admitPut(&b.w)
	b.w = layout{}
	if ok {
		b.commitFrom(src, r)
	}
}

// admitPut reports whether a put row of layout l may be committed: the
// first fixes the layout, a later mismatch is kept for PutErr.
func (b *Batch) admitPut(l *layout) bool {
	if b.n == 0 {
		b.layout, b.byPut = *l, true
		return true
	}
	if b.same(l) {
		return true
	}
	if !b.bad {
		b.bad, b.misput = true, *l
	}
	return false
}

// PutErr reports a put row the batch refused since the last Reset,
// nil if none.
func (b *Batch) PutErr() error {
	if !b.bad {
		return nil
	}
	return fmt.Errorf("tuple: put row %v does not match the batch layout %v",
		b.misput.list(), b.list())
}

// Col returns column c's raw slot lane (length Len). Kernels that have
// checked the kind once can iterate it directly: integer bits, float
// bits, 0/1 booleans, symbol ids, or arena ranges.
func (b *Batch) Col(c int) []uint64 {
	return b.slots[c*b.rows : c*b.rows+b.n]
}

// Int returns column c, row r as an int64.
func (b *Batch) Int(c, r int) int64 { return b.key(c, r).asInt(c) }

// Float returns column c, row r as a float64 (integer columns convert).
func (b *Batch) Float(c, r int) float64 { return b.key(c, r).asFloat(c) }

// Bool returns column c, row r as a bool.
func (b *Batch) Bool(c, r int) bool { return b.key(c, r).asBool(c) }

// Sym returns column c, row r as an interned symbol.
func (b *Batch) Sym(c, r int) Sym { return b.key(c, r).asSym(c) }

// Str returns column c, row r as a string. For a string column the
// result is a view into the batch arena, valid only while the caller
// holds the batch; for a symbol column it is the stable interned name.
func (b *Batch) Str(c, r int) string { return b.key(c, r).asStr(c) }

// StrLen returns the byte length of string column c, row r without
// materializing a string header (the filter kernels' fast path).
func (b *Batch) StrLen(c, r int) int {
	if b.kinds[c] != KindStr {
		panic(kindErr(c, b.kinds[c], KindStr))
	}
	return int(b.slots[c*b.rows+r] & 0xffffffff)
}

// Key returns column c, row r as a grouping key. A string column's key
// borrows the arena view — Canon before storing it past the batch.
func (b *Batch) Key(c, r int) Key { return b.key(c, r) }

// key decodes column c, row r.
func (b *Batch) key(c, r int) Key {
	return fieldKey(b.kinds[c], b.slots[c*b.rows+r], b.arena)
}

// Hash hashes column c, row r: the Hash of its Key, as Tuple.Hash is,
// so a key routes identically whether it travels row-wise or columnar.
func (b *Batch) Hash(c, r int) uint64 { return b.key(c, r).Hash() }

// Ts returns row r's latency timestamp.
func (b *Batch) Ts(r int) time.Time { return b.ts[r] }

// Event returns row r's event timestamp.
func (b *Batch) Event(r int) int64 { return b.event[r] }

// TraceID returns row r's trace id (0: untraced).
func (b *Batch) TraceID(r int) uint64 { return b.traceID[r] }

// TraceOrigin returns row r's trace origin timestamp.
func (b *Batch) TraceOrigin(r int) int64 { return b.traceOrigin[r] }

// StampMeta propagates row r's header metadata onto an output tuple
// the way the engine propagates a scalar input's: the latency
// timestamp and trace context always, the event time only when the
// operator left it unset. Batch operators call it per emitted tuple
// (the ambient collector stamping is bypassed during ProcessBatch —
// it would smear one row's context over the whole batch's outputs).
func (b *Batch) StampMeta(r int, out *Tuple) {
	out.Ts = b.ts[r]
	if out.Event == 0 {
		out.Event = b.event[r]
	}
	out.TraceID = b.traceID[r]
	out.TraceOrigin = b.traceOrigin[r]
}

// CopyRowTo materializes row r into dst: payload (arena strings
// copied), stream and all header metadata. The engine's row adapter
// uses it to feed operators that process one row at a time.
func (b *Batch) CopyRowTo(r int, dst *Tuple) {
	dst.layout = b.layout
	dst.arena = dst.arena[:0]
	b.copyRow(dst.slots[:], 1, &dst.arena, b.slots[r:], b.rows, b.arena)
	dst.Stream = b.Stream
	dst.Ts = b.ts[r]
	dst.Event = b.event[r]
	dst.TraceID = b.traceID[r]
	dst.TraceOrigin = b.traceOrigin[r]
}

// SelScratch returns an empty selection vector with capacity for
// every row, for filter kernels to append surviving row indices to. To
// the batch's one reader it hands the batch's reusable vector; on a
// batch other readers still hold (Shared) it returns a fresh one, as
// the readers would race on a shared vector.
func (b *Batch) SelScratch() []int32 {
	if b.Shared() {
		return make([]int32, 0, b.rows)
	}
	if cap(b.sel) < b.rows {
		b.sel = make([]int32, 0, b.rows)
	}
	return b.sel[:0]
}

// Size estimates the batch's in-memory payload footprint in bytes,
// the columnar counterpart of Tuple.Size summed over rows.
func (b *Batch) Size() int { return b.size(b.n, len(b.arena)) }
