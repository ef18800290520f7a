// Package tuple defines the data units that flow through BriskStream:
// individual tuples, the columnar batches rows travel in between tasks,
// and "jumbo tuples" (a batch under one shared header, enqueued with a
// single queue insertion — Section 5.2 of the paper). It also provides
// a binary (de)serialization path that is deliberately NOT used by the
// BriskStream engine: staying inside shared memory is the whole point
// of the design. Serialization exists so the Storm-like baseline can
// pay the cost a distributed DSPS pays, which is what the factor
// analysis (Figure 16) measures.
//
// # One row payload
//
// A row's payload is schema-typed, not boxed, and stored one way: a
// slot lane per field (one uint64 per field plus a kind tag) and a byte
// arena holding string fields as (offset, length) ranges. A Batch is
// that payload over many rows, one column lane per field; a Tuple is
// the same payload over one row, in an inline slot array, under the
// header fields a batch keeps in per-row lanes. Every field decoder,
// hash, layout compare and row copy therefore exists once and serves
// both. Nothing on the emit path allocates — writing an int is a slot
// store, writing a string is a byte copy into the recycled arena — and
// nothing on the read path type-switches on interfaces. Streams may
// declare a Schema (field names + kinds) at wiring time; the engine
// checks the layout of emitted batches against it (Schema.CheckBatch).
//
// Low-cardinality hot strings (words, device ids) should be interned as
// symbols (Sym, InternSym): a symbol field stores a 4-byte id, compares
// and hashes without touching the text, and Str returns the interned
// name, which is stable for the life of the process.
//
// # Ownership and recycling
//
// Rows cross tasks by value: a producer puts a row into the batch its
// collector's Out hands it (or fills a row from its task's Pool and
// Sends it, which copies it into that batch and releases it), and
// batches — not tuples — cross cores and recycle over a per-edge free
// ring. A consumer that processes one row at a time gets each row
// copied (Batch.CopyRowTo) into one task-local tuple, refilled for the
// next row. Every tuple has a single owner at a time, so none carries a
// reference count. The contract for operator code:
//
//   - A tuple received by Process is valid only until Process returns:
//     the engine refills it with the next input row. To keep the row
//     longer (windows, joins, handing it to another goroutine), Clone
//     it.
//   - Numeric and boolean field values read from a tuple may be kept
//     forever. A string read with Str from an ordinary string field is a
//     view into the tuple's arena and is valid only while the caller
//     holds the tuple — clone it (strings.Clone, or Key(i).Canon() for
//     keys) to keep it past Process. Symbol fields are exempt: their Str
//     result is the interned name, stable for the process lifetime.
//   - A row obtained from Collector.Borrow is scratch: owned by the
//     caller until passed to Collector.Send, which copies it out and
//     takes it back.
//
// Stream identity is interned: StreamID is resolved from the stream name
// once at wiring time, so per-tuple routing never compares strings.
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Value is a dynamically typed field for the convenience surfaces
// (Collector.Emit, New). The hot path writes typed slots directly via
// the Append* methods and never boxes.
type Value = any

// Kind identifies the type of one tuple field slot.
type Kind uint8

const (
	// KindNone marks an unset slot (and the empty Key of global windows).
	KindNone Kind = iota
	// KindInt is a 64-bit signed integer field.
	KindInt
	// KindFloat is a float64 field.
	KindFloat
	// KindBool is a boolean field.
	KindBool
	// KindStr is a string field stored in the tuple's byte arena.
	KindStr
	// KindSym is an interned symbol field (see InternSym): the slot
	// holds the 4-byte symbol id, the text lives in the process-global
	// symbol table.
	KindSym
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindInt:
		return "int64"
	case KindFloat:
		return "float64"
	case KindBool:
		return "bool"
	case KindStr:
		return "string"
	case KindSym:
		return "symbol"
	default:
		return fmt.Sprintf("kind#%d", uint8(k))
	}
}

// MaxFields is the fixed slot capacity of a tuple. The evaluation
// workloads top out at seven fields (LR's input records); a wider record
// should be split or nested rather than grown past the inline array —
// the fixed layout is what keeps the tuple allocation-free.
const MaxFields = 8

// Tuple is one data item flowing along a stream: the row an operator
// fills to emit, and the row a scalar operator is handed to process.
type Tuple struct {
	// Stream is the interned id of the output stream this tuple was
	// emitted on. Operators with a single output use DefaultStreamID
	// (the zero value).
	Stream StreamID
	// Ts is the event creation time used for end-to-end latency
	// measurement; it is stamped by the spout and carried through.
	Ts time.Time
	// Event is the tuple's event timestamp in application time units
	// (milliseconds by convention): the domain time the event occurred,
	// as opposed to Ts, which is wall-clock processing time. Sources
	// stamp it, the engine propagates it input→output when an operator
	// leaves it zero, and the window operators assign tuples to windows
	// by it. Zero means "unset" (no event-time semantics on this path).
	Event int64
	// TraceID identifies the sampled end-to-end trace this tuple belongs
	// to; zero means untraced (the overwhelmingly common case). The
	// engine stamps every k-th spout tuple (Config.TraceSampleEvery) and
	// propagates the id input→output like Event, so derived tuples stay
	// on their ancestor's trace.
	TraceID uint64
	// TraceOrigin is the wall-clock UnixNano at which the traced root
	// tuple left its spout; span records diff against it for end-to-end
	// attribution. Zero whenever TraceID is zero.
	TraceOrigin int64

	// The payload (see payload.go) at one row: the layout, the inline
	// slots, and the arena holding the string fields, which is recycled
	// with the tuple, keeping its capacity.
	layout
	slots [MaxFields]uint64
	arena []byte

	// pool points back to the Pool the row was got from while its owner
	// holds it, and is nil otherwise (ordinary GC-managed tuples, the
	// engine's task-local input row, released rows): Release recycles
	// only a row that still has it.
	pool *Pool
}

// DefaultStream is the stream name used by operators with one output.
const DefaultStream = "default"

// New builds a non-pooled tuple on the default stream from dynamically
// typed values (a convenience for tests and wiring-time construction;
// hot paths fill borrowed rows with the typed Append* methods).
func New(values ...Value) *Tuple {
	t := &Tuple{}
	for _, v := range values {
		t.Append(v)
	}
	return t
}

// OnStream builds a non-pooled tuple on a named stream (interning the
// name; hot paths should pre-intern and set Stream directly).
func OnStream(stream string, values ...Value) *Tuple {
	t := New(values...)
	t.Stream = Intern(stream)
	return t
}

// StreamName returns the name of the tuple's stream.
func (t *Tuple) StreamName() string { return t.Stream.String() }

// Len returns the number of filled fields.
func (t *Tuple) Len() int { return t.cols }

// Kind returns the kind of field i.
func (t *Tuple) Kind(i int) Kind {
	t.check(i)
	return t.kinds[i]
}

// Reset clears the payload (fields and arena, keeping capacity) so the
// tuple can be refilled. The header fields — Stream, Ts, Event and the
// trace context — are untouched.
func (t *Tuple) Reset() {
	t.layout = layout{}
	t.arena = t.arena[:0]
}

// check panics on an out-of-range field index.
func (t *Tuple) check(i int) {
	if i < 0 || i >= t.cols {
		panic(fmt.Sprintf("tuple: field %d out of range (tuple has %d)", i, t.cols))
	}
}

// key decodes field i, which must be in range.
func (t *Tuple) key(i int) Key { return fieldKey(t.kinds[i], t.slots[i], t.arena) }

// push appends a field of kind k holding slot value v.
func (t *Tuple) push(k Kind, v uint64) {
	i := t.cols
	if i >= MaxFields {
		panic(fmt.Sprintf("tuple: too many fields (max %d)", MaxFields))
	}
	t.kinds[i], t.slots[i] = k, v
	t.cols = i + 1
}

// AppendInt appends an int64 field.
func (t *Tuple) AppendInt(v int64) { t.push(KindInt, uint64(v)) }

// AppendFloat appends a float64 field.
func (t *Tuple) AppendFloat(v float64) { t.push(KindFloat, math.Float64bits(v)) }

// AppendBool appends a boolean field.
func (t *Tuple) AppendBool(v bool) { t.push(KindBool, boolSlot(v)) }

// AppendStr appends a string field, copying the bytes into the tuple's
// arena (no allocation once the arena capacity is warm).
func (t *Tuple) AppendStr(s string) { t.push(KindStr, appendStr(&t.arena, s)) }

// AppendStrBytes appends a string field from a byte slice, copying into
// the arena (sources building records in reusable buffers use it to
// avoid the string conversion).
func (t *Tuple) AppendStrBytes(b []byte) { t.AppendStr(bytesView(b)) }

// AppendSym appends an interned symbol field.
func (t *Tuple) AppendSym(s Sym) { t.push(KindSym, uint64(s)) }

// AppendKey appends a key extracted from another tuple with its kind
// preserved (window operators emit their group key this way). Appending
// the empty key panics.
func (t *Tuple) AppendKey(k Key) {
	switch k.kind {
	case KindNone:
		panic("tuple: cannot append an empty key")
	case KindStr:
		t.AppendStr(k.str)
	default:
		t.push(k.kind, k.num)
	}
}

// Append appends one dynamically typed value (the boxing compat surface
// behind Collector.Emit). Supported types: int64, int, float64, string,
// bool, Sym and Key.
func (t *Tuple) Append(v Value) {
	switch x := v.(type) {
	case int64:
		t.AppendInt(x)
	case int:
		t.AppendInt(int64(x))
	case float64:
		t.AppendFloat(x)
	case string:
		t.AppendStr(x)
	case bool:
		t.AppendBool(x)
	case Sym:
		t.AppendSym(x)
	case Key:
		t.AppendKey(x)
	default:
		panic(fmt.Sprintf("tuple: unsupported field type %T", v))
	}
}

// Int returns field i as an int64.
func (t *Tuple) Int(i int) int64 {
	t.check(i)
	return t.key(i).asInt(i)
}

// Float returns field i as a float64 (an integer field is converted).
func (t *Tuple) Float(i int) float64 {
	t.check(i)
	return t.key(i).asFloat(i)
}

// Bool returns field i as a bool.
func (t *Tuple) Bool(i int) bool {
	t.check(i)
	return t.key(i).asBool(i)
}

// Str returns field i as a string. For an ordinary string field the
// result is a zero-copy view into the tuple's arena, valid only while
// the caller holds the tuple (clone to keep it past Process). For a
// symbol field the result is the interned name, stable for the life of
// the process.
func (t *Tuple) Str(i int) string {
	t.check(i)
	return t.key(i).asStr(i)
}

// Sym returns field i as an interned symbol.
func (t *Tuple) Sym(i int) Sym {
	t.check(i)
	return t.key(i).asSym(i)
}

// Key returns field i as a grouping key. A string field's key borrows
// the arena view — call Canon before storing it beyond the tuple's
// lifetime (the window operators do, only when creating new state).
func (t *Tuple) Key(i int) Key {
	t.check(i)
	return t.key(i)
}

// Value returns field i boxed as a dynamic value (debug/capture
// surface; allocates for strings and large numbers). Symbol fields box
// their interned name, so captured output is representation-agnostic.
func (t *Tuple) Value(i int) Value {
	t.check(i)
	k := t.key(i)
	switch k.kind {
	case KindInt:
		return int64(k.num)
	case KindFloat:
		return math.Float64frombits(k.num)
	case KindBool:
		return k.num != 0
	case KindStr:
		return strings.Clone(k.str)
	case KindSym:
		return Sym(k.num).Name()
	default:
		return nil
	}
}

// Hash hashes field i for fields-grouping: the Hash of its Key.
func (t *Tuple) Hash(i int) uint64 {
	t.check(i)
	return t.key(i).Hash()
}

// String formats the tuple's payload for debugging, like a value slice:
// "[a 1 2.5]".
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < t.cols; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.key(i).String())
	}
	b.WriteByte(']')
	return b.String()
}

// Size estimates the in-memory footprint of the tuple in bytes. This is
// the N statistic of the performance model (average size per tuple); the
// paper measures it with the classmexer agent, we compute it directly.
func (t *Tuple) Size() int { return t.size(1, len(t.arena)) }

// Clone deep-copies the tuple into a fresh non-pooled allocation: how
// an operator keeps an input row past Process. The BriskStream path
// never calls this on the hot path; it is what the Storm-like
// baseline's defensive copy costs.
func (t *Tuple) Clone() *Tuple {
	c := new(Tuple)
	c.copyAll(t)
	return c
}

// CopyValuesFrom overwrites this tuple's payload with src's, leaving
// the header fields alone — the forwarding shape of pass-through
// operators.
func (t *Tuple) CopyValuesFrom(src *Tuple) {
	t.layout = src.layout
	// One arena growth for every string field.
	t.arena = slices.Grow(t.arena[:0], len(src.arena))
	t.copyRow(t.slots[:], 1, &t.arena, src.slots[:], 1, src.arena)
}

// copyAll overwrites the header and the payload with src's (a call of
// its own keeps Clone inlinable, so a clone that does not escape its
// caller stays off the heap).
func (t *Tuple) copyAll(src *Tuple) {
	t.Stream, t.Ts, t.Event = src.Stream, src.Ts, src.Event
	t.TraceID, t.TraceOrigin = src.TraceID, src.TraceOrigin
	t.CopyValuesFrom(src)
}

// PunctKind says which control record, if any, a jumbo's header carries.
type PunctKind uint8

const (
	PunctNone PunctKind = iota
	// PunctWatermark: Event is the producer's low watermark.
	PunctWatermark
	// PunctBarrier: Event is the checkpoint id (or the engine's
	// producer-finished sentinel).
	PunctBarrier
)

// Punct is a control record riding a jumbo's header: it applies after
// the jumbo's payload, so it stays ordered behind exactly the data it
// follows at no extra queue insertion.
type Punct struct {
	Kind  PunctKind
	Event int64
	// Ts is the latency stamp punctuations carry through to the outputs
	// they trigger (window aggregates fired by a watermark).
	Ts time.Time
}

// Jumbo is a jumbo tuple: a batch of rows from one producer to one
// consumer that shares a single header (producer identity, queueing
// stamp, control record) and occupies a single communication-queue
// slot. Section 5.2: the shared header eliminates duplicate per-tuple
// metadata and the single insertion amortizes queue synchronization.
// The header is small and travels by value in the queue slot; only the
// batch it points to is shared memory.
type Jumbo struct {
	// Producer identifies the sending task, replacing a per-tuple
	// header.
	Producer int
	// EnqNs is the wall clock (UnixNano) at which the batch was put on
	// its communication queue. The consumer diffs against it on dequeue,
	// which attributes queue-wait to every batch — and therefore every
	// task/edge — at one clock read per jumbo, not per tuple.
	EnqNs int64
	// Batch is the columnar payload (see Batch); nil on a jumbo that
	// carries only its Punct.
	Batch *Batch
	// Punct is the control record that follows the payload (Kind
	// PunctNone on a plain data jumbo).
	Punct Punct
}

// Len returns the number of rows in the batch.
func (j Jumbo) Len() int {
	if j.Batch == nil {
		return 0
	}
	return j.Batch.Len()
}

// Wire kind tags. They survive from the boxed era (int=1, float=2,
// string=3, bool=4) so old traces stay readable; symbols are a new tag
// and carry their text, re-interned on decode.
const (
	wireInt byte = iota + 1
	wireFloat
	wireString
	wireBool
	wireSym
)

// Marshal serializes the tuple into a compact binary frame. Only the
// baseline (Storm-like) engine mode uses this; BriskStream passes
// references. The encoding is deterministic: equal tuples marshal to
// identical bytes.
func Marshal(t *Tuple, buf []byte) []byte {
	buf = appendString(buf, t.Stream.String())
	// A zero timestamp (no latency sample) is encoded as 0; calling
	// UnixNano on the zero Time would produce an arbitrary huge value.
	var ts uint64
	if !t.Ts.IsZero() {
		ts = uint64(t.Ts.UnixNano())
	}
	buf = binary.BigEndian.AppendUint64(buf, ts)
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Event))
	buf = binary.BigEndian.AppendUint64(buf, t.TraceID)
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.TraceOrigin))
	buf = binary.BigEndian.AppendUint16(buf, uint16(t.cols))
	for i := 0; i < t.cols; i++ {
		k := t.key(i)
		switch k.kind {
		case KindInt:
			buf = append(buf, wireInt)
			buf = binary.BigEndian.AppendUint64(buf, k.num)
		case KindFloat:
			buf = append(buf, wireFloat)
			buf = binary.BigEndian.AppendUint64(buf, k.num)
		case KindStr:
			buf = append(buf, wireString)
			buf = appendString(buf, k.str)
		case KindBool:
			buf = append(buf, wireBool, byte(boolSlot(k.num != 0)))
		case KindSym:
			buf = append(buf, wireSym)
			buf = appendString(buf, k.asStr(i))
		default:
			panic(fmt.Sprintf("tuple: cannot marshal %v field", k.kind))
		}
	}
	return buf
}

// ErrCorrupt reports a malformed serialized tuple.
var ErrCorrupt = errors.New("tuple: corrupt frame")

// Unmarshal decodes a frame produced by Marshal and returns the decoded
// tuple along with the number of bytes consumed. Symbol fields are
// re-interned, so a decoded symbol key equals the key the original
// tuple carried.
func Unmarshal(buf []byte) (*Tuple, int, error) {
	stream, off, err := readString(buf, 0)
	if err != nil {
		return nil, 0, err
	}
	if off+34 > len(buf) {
		return nil, 0, ErrCorrupt
	}
	ts := int64(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	event := int64(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	traceID := binary.BigEndian.Uint64(buf[off:])
	off += 8
	traceOrigin := int64(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	n := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if n > MaxFields {
		return nil, 0, ErrCorrupt
	}
	t := &Tuple{Stream: Intern(stream), Event: event,
		TraceID: traceID, TraceOrigin: traceOrigin}
	if ts != 0 {
		t.Ts = time.Unix(0, ts)
	}
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return nil, 0, ErrCorrupt
		}
		k := buf[off]
		off++
		switch k {
		case wireInt, wireFloat:
			if off+8 > len(buf) {
				return nil, 0, ErrCorrupt
			}
			kind := KindInt
			if k == wireFloat {
				kind = KindFloat
			}
			t.push(kind, binary.BigEndian.Uint64(buf[off:]))
			off += 8
		case wireString:
			s, o, err := readString(buf, off)
			if err != nil {
				return nil, 0, err
			}
			t.AppendStr(s)
			off = o
		case wireBool:
			if off >= len(buf) {
				return nil, 0, ErrCorrupt
			}
			t.AppendBool(buf[off] == 1)
			off++
		case wireSym:
			s, o, err := readString(buf, off)
			if err != nil {
				return nil, 0, err
			}
			t.AppendSym(InternSym(s))
			off = o
		default:
			return nil, 0, ErrCorrupt
		}
	}
	return t, off, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(buf []byte, off int) (string, int, error) {
	if off+4 > len(buf) {
		return "", 0, ErrCorrupt
	}
	n := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if n < 0 || off+n > len(buf) {
		return "", 0, ErrCorrupt
	}
	return string(buf[off : off+n]), off + n, nil
}
