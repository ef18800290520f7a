// Columnar jumbo batches. A Batch is the payload of every jumbo: it
// stores the rows one producer sends one consumer as kind-tagged column
// vectors — one uint64 slot lane per field with a fixed stride, a
// shared byte arena holding every string field's bytes as
// (offset<<32 | length) ranges, and per-row metadata lanes (latency
// timestamp, event time, trace context) that replace the per-tuple
// header fields. Operators that implement the engine's BatchOperator
// interface receive whole batches and iterate columns in tight per-kind
// loops; everything else still sees tuples, materialized one row at a
// time.
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
// A batch has one owner at a time, so recycling needs no refcount —
// the consumer resets and returns it when done. Rows are copied into a
// batch, never shared with another batch; a pass-through that forwards
// a whole batch unchanged passes the batch itself on (Restream) instead
// of copying it, and the batch is then the next hop's alone. String
// values read from a batch (Str, Key with a string key) are views into
// the batch arena, valid only while the consumer holds the batch;
// symbol fields are exempt as always.
package tuple

import (
	"fmt"
	"math"
	"time"
	"unsafe"
)

// Batch is one columnar jumbo batch flowing along a (producer,
// consumer) edge.
type Batch struct {
	// Stream is the interned stream id shared by every row (a batch
	// never mixes streams — the engine flushes on a stream change).
	Stream StreamID

	cols  int
	kinds [MaxFields]Kind
	n     int // filled rows
	rows  int // row capacity; also the column stride in slots

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

	// sel is the reusable selection-vector scratch handed out by
	// SelScratch (owned by whoever holds the batch; kernels fill it
	// with the row indices that survive a filter).
	sel []int32

	// The row being put: wcol fields written so far, tagged in wkinds
	// (KindNone past wcol). byPut records that the layout was adopted
	// from a put row; misput, with bad set, the layout of the first put
	// row EndRowFrom refused for not matching it.
	wcol   int
	wkinds [MaxFields]Kind
	byPut  bool
	bad    bool
	misput [MaxFields]Kind
}

// NewBatch creates an empty batch with capacity for rows rows.
func NewBatch(rows int) *Batch {
	if rows <= 0 {
		rows = 1
	}
	return &Batch{
		rows:        rows,
		slots:       make([]uint64, MaxFields*rows),
		ts:          make([]time.Time, rows),
		event:       make([]int64, rows),
		traceID:     make([]uint64, rows),
		traceOrigin: make([]int64, rows),
	}
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
	b.cols = 0
	b.Stream = DefaultStreamID
	b.arena = b.arena[:0]
	b.hasTrace = false
	b.wcol, b.wkinds = 0, [MaxFields]Kind{}
	b.byPut, b.bad = false, false
}

// Fits reports whether t shares the batch's layout (stream, arity and
// field kinds). An empty batch fits anything — Append adopts.
func (b *Batch) Fits(t *Tuple) bool {
	if b.n == 0 {
		return true
	}
	if t.Stream != b.Stream || int(t.n) != b.cols {
		return false
	}
	for c := 0; c < b.cols; c++ {
		if t.kinds[c] != b.kinds[c] {
			return false
		}
	}
	return true
}

// Append copies one tuple's payload and header metadata into the next
// row. The first append adopts the tuple's layout; callers check Fits
// (and flush on mismatch) before appending to a non-empty batch. The
// batch must not be full.
func (b *Batch) Append(t *Tuple) {
	if b.n == 0 {
		b.Stream = t.Stream
		b.cols = int(t.n)
		b.kinds = t.kinds
		b.byPut = false
	}
	b.copyTuple(t)
}

// PutTuple is the Put methods and EndRowFrom for a whole tuple: it
// copies t's fields and header metadata into the next row as a put
// row (Stream comes from ReadyFor). The batch must not be full.
func (b *Batch) PutTuple(t *Tuple) {
	k := t.kinds
	clear(k[t.n:]) // a put layout has no kinds past its arity
	if b.admitPut(int(t.n), &k) {
		b.copyTuple(t)
	}
}

// copyTuple copies t into the next row under the batch's layout.
func (b *Batch) copyTuple(t *Tuple) {
	r := b.n
	idx := r
	for c := 0; c < b.cols; c++ {
		if b.kinds[c] == KindStr {
			s := t.strAt(c)
			off := len(b.arena)
			b.arena = append(b.arena, s...)
			b.slots[idx] = uint64(off)<<32 | uint64(len(s))
		} else {
			b.slots[idx] = t.slots[c]
		}
		idx += b.rows
	}
	b.ts[r] = t.Ts
	b.event[r] = t.Event
	b.traceID[r] = t.TraceID
	b.traceOrigin[r] = t.TraceOrigin
	if t.TraceID != 0 {
		b.hasTrace = true
	}
	b.n = r + 1
}

// FitsRowFrom reports whether rows of src, re-stamped onto the given
// stream, share the batch's layout — the batch-to-batch analogue of
// Fits. An empty batch fits anything — AppendRowFrom adopts.
func (b *Batch) FitsRowFrom(src *Batch, stream StreamID) bool {
	if b.n == 0 {
		return true
	}
	if stream != b.Stream || src.cols != b.cols {
		return false
	}
	for c := 0; c < b.cols; c++ {
		if src.kinds[c] != b.kinds[c] {
			return false
		}
	}
	return true
}

// AppendRowFrom copies row r of src (payload and per-row metadata)
// into the next row, re-stamped onto the given stream — a forwarded
// row lands column-to-column without ever materializing a tuple. The
// first append adopts src's layout; callers check FitsRowFrom (and
// flush on mismatch) before appending to a non-empty batch. The batch
// must not be full, and src must not alias b.
func (b *Batch) AppendRowFrom(src *Batch, r int, stream StreamID) {
	if b.n == 0 {
		b.Stream = stream
		b.cols = src.cols
		b.kinds = src.kinds
		b.byPut = false
	}
	row := b.n
	dst, from := row, r
	for c := 0; c < b.cols; c++ {
		if b.kinds[c] == KindStr {
			s := src.strAt(c, r)
			off := len(b.arena)
			b.arena = append(b.arena, s...)
			b.slots[dst] = uint64(off)<<32 | uint64(len(s))
		} else {
			b.slots[dst] = src.slots[from]
		}
		dst += b.rows
		from += src.rows
	}
	b.ts[row] = src.ts[r]
	b.event[row] = src.event[r]
	b.traceID[row] = src.traceID[r]
	b.traceOrigin[row] = src.traceOrigin[r]
	if src.traceID[r] != 0 {
		b.hasTrace = true
	}
	b.n = row + 1
}

// Restream re-stamps every row onto stream s, as AppendRowFrom would
// have: the batch forwarded whole (a pass-through's input, handed over
// by reference) leaves on the stream it was forwarded on. Its layout
// then counts as appended, not put, so ReadyFor refuses put rows and the
// putter starts a fresh batch instead of joining this one.
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
func (b *Batch) PutBool(v bool) {
	var x uint64
	if v {
		x = 1
	}
	b.put(KindBool, x)
}

// PutSym writes the next field of the row being put as a symbol.
func (b *Batch) PutSym(s Sym) { b.put(KindSym, uint64(s)) }

// PutStr writes the next field of the row being put as a string,
// copied into the batch arena.
func (b *Batch) PutStr(s string) {
	off := len(b.arena)
	b.arena = append(b.arena, s...)
	b.put(KindStr, uint64(off)<<32|uint64(len(s)))
}

// PutStrBytes is PutStr from a byte slice, copied into the arena.
func (b *Batch) PutStrBytes(s []byte) {
	off := len(b.arena)
	b.arena = append(b.arena, s...)
	b.put(KindStr, uint64(off)<<32|uint64(len(s)))
}

func (b *Batch) put(k Kind, v uint64) {
	c := b.wcol
	b.wkinds[c] = k // past MaxFields: index out of range
	b.slots[c*b.rows+b.n] = v
	b.wcol = c + 1
}

// EndRowFrom commits the row being put, with row r of src's metadata —
// latency timestamp, event time and trace context — as StampMeta
// stamps a tuple. The first row of a batch fixes its layout (Stream
// comes from ReadyFor). A row whose kinds differ from that layout is
// not stored: the batch keeps it out and reports it through PutErr.
func (b *Batch) EndRowFrom(src *Batch, r int) {
	k, cols := b.wkinds, b.wcol
	b.wcol, b.wkinds = 0, [MaxFields]Kind{}
	if !b.admitPut(cols, &k) {
		return
	}
	row := b.n
	b.ts[row] = src.ts[r]
	b.event[row] = src.event[r]
	b.traceID[row] = src.traceID[r]
	b.traceOrigin[row] = src.traceOrigin[r]
	if src.traceID[r] != 0 {
		b.hasTrace = true
	}
	b.n = row + 1
}

// admitPut reports whether a put row of these kinds may be committed:
// the first fixes the layout, a later mismatch is kept for PutErr.
func (b *Batch) admitPut(cols int, k *[MaxFields]Kind) bool {
	if b.n == 0 {
		b.cols, b.kinds, b.byPut = cols, *k, true
		return true
	}
	if *k == b.kinds {
		return true
	}
	if !b.bad {
		b.bad, b.misput = true, *k
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
		kindList(&b.misput), kindList(&b.kinds))
}

// kindList lists the set kinds of a layout, for messages.
func kindList(k *[MaxFields]Kind) []Kind {
	n := 0
	for n < MaxFields && k[n] != KindNone {
		n++
	}
	return k[:n]
}

// Col returns column c's raw slot lane (length Len). Kernels that have
// checked the kind once can iterate it directly: integer bits, float
// bits, 0/1 booleans, symbol ids, or arena ranges.
func (b *Batch) Col(c int) []uint64 {
	return b.slots[c*b.rows : c*b.rows+b.n]
}

// Int returns column c, row r as an int64.
func (b *Batch) Int(c, r int) int64 {
	if b.kinds[c] != KindInt {
		panic(fmt.Sprintf("tuple: batch column %d is %v, not int64", c, b.kinds[c]))
	}
	return int64(b.slots[c*b.rows+r])
}

// Float returns column c, row r as a float64 (integer columns convert).
func (b *Batch) Float(c, r int) float64 {
	switch b.kinds[c] {
	case KindFloat:
		return math.Float64frombits(b.slots[c*b.rows+r])
	case KindInt:
		return float64(int64(b.slots[c*b.rows+r]))
	default:
		panic(fmt.Sprintf("tuple: batch column %d is %v, not float64", c, b.kinds[c]))
	}
}

// Bool returns column c, row r as a bool.
func (b *Batch) Bool(c, r int) bool {
	if b.kinds[c] != KindBool {
		panic(fmt.Sprintf("tuple: batch column %d is %v, not bool", c, b.kinds[c]))
	}
	return b.slots[c*b.rows+r] != 0
}

// Sym returns column c, row r as an interned symbol.
func (b *Batch) Sym(c, r int) Sym {
	if b.kinds[c] != KindSym {
		panic(fmt.Sprintf("tuple: batch column %d is %v, not symbol", c, b.kinds[c]))
	}
	return Sym(b.slots[c*b.rows+r])
}

// Str returns column c, row r as a string. For a string column the
// result is a view into the batch arena, valid only while the caller
// holds the batch; for a symbol column it is the stable interned name.
func (b *Batch) Str(c, r int) string {
	switch b.kinds[c] {
	case KindStr:
		return b.strAt(c, r)
	case KindSym:
		return Sym(b.slots[c*b.rows+r]).Name()
	default:
		panic(fmt.Sprintf("tuple: batch column %d is %v, not string", c, b.kinds[c]))
	}
}

// StrLen returns the byte length of string column c, row r without
// materializing a string header (the filter kernels' fast path).
func (b *Batch) StrLen(c, r int) int {
	if b.kinds[c] != KindStr {
		panic(fmt.Sprintf("tuple: batch column %d is %v, not string", c, b.kinds[c]))
	}
	return int(b.slots[c*b.rows+r] & 0xffffffff)
}

func (b *Batch) strAt(c, r int) string {
	slot := b.slots[c*b.rows+r]
	off := int(slot >> 32)
	ln := int(slot & 0xffffffff)
	if ln == 0 {
		return ""
	}
	return unsafe.String(&b.arena[off], ln)
}

// Key returns column c, row r as a grouping key. A string column's key
// borrows the arena view — Canon before storing it past the batch.
func (b *Batch) Key(c, r int) Key {
	k := Key{kind: b.kinds[c], num: b.slots[c*b.rows+r]}
	if k.kind == KindStr {
		k.num = 0
		k.str = b.strAt(c, r)
	}
	return k
}

// Hash hashes column c, row r exactly like Tuple.Hash, so a key routes
// identically whether it travels row-wise or columnar.
func (b *Batch) Hash(c, r int) uint64 {
	switch b.kinds[c] {
	case KindInt, KindFloat:
		return hashUint64(b.slots[c*b.rows+r])
	case KindBool:
		h := fnvOffset64
		if b.slots[c*b.rows+r] != 0 {
			h ^= 1
		}
		return h * fnvPrime64
	case KindStr:
		return hashString(b.strAt(c, r))
	case KindSym:
		return hashString(Sym(b.slots[c*b.rows+r]).Name())
	default:
		return fnvOffset64
	}
}

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
	dst.n = uint8(b.cols)
	dst.kinds = b.kinds
	dst.arena = dst.arena[:0]
	for c := 0; c < b.cols; c++ {
		if b.kinds[c] == KindStr {
			s := b.strAt(c, r)
			off := len(dst.arena)
			dst.arena = append(dst.arena, s...)
			dst.slots[c] = uint64(off)<<32 | uint64(len(s))
		} else {
			dst.slots[c] = b.slots[c*b.rows+r]
		}
	}
	dst.Stream = b.Stream
	dst.Ts = b.ts[r]
	dst.Event = b.event[r]
	dst.TraceID = b.traceID[r]
	dst.TraceOrigin = b.traceOrigin[r]
}

// AppendFieldTo appends field (c, r) onto dst with its kind preserved
// (arena copy for strings) — the projection kernels' building block.
func (b *Batch) AppendFieldTo(c, r int, dst *Tuple) {
	switch b.kinds[c] {
	case KindInt:
		dst.AppendInt(int64(b.slots[c*b.rows+r]))
	case KindFloat:
		i := dst.grow()
		dst.kinds[i] = KindFloat
		dst.slots[i] = b.slots[c*b.rows+r]
	case KindBool:
		dst.AppendBool(b.slots[c*b.rows+r] != 0)
	case KindStr:
		dst.AppendStr(b.strAt(c, r))
	case KindSym:
		dst.AppendSym(Sym(b.slots[c*b.rows+r]))
	default:
		panic(fmt.Sprintf("tuple: cannot append %v batch field", b.kinds[c]))
	}
}

// SelScratch returns the batch's reusable selection vector, emptied,
// with capacity for every row. Filter kernels append surviving row
// indices to it; it is owned by whoever holds the batch.
func (b *Batch) SelScratch() []int32 {
	if cap(b.sel) < b.rows {
		b.sel = make([]int32, 0, b.rows)
	}
	return b.sel[:0]
}

// Size estimates the batch's in-memory payload footprint in bytes,
// the columnar counterpart of Tuple.Size summed over rows.
func (b *Batch) Size() int {
	const header = 48
	return header*b.n + 16*b.cols*b.n + len(b.arena)
}
