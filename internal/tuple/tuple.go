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
// # Typed slot representation
//
// A tuple's payload is schema-typed, not boxed: every field lives in a
// fixed inline slot array (one uint64 per field plus a kind tag), and
// string fields are byte ranges in a small per-tuple arena that is
// recycled with the tuple. Nothing on the emit path allocates — writing
// an int is a slot store, writing a string is a byte copy into the
// pooled arena — and nothing on the read path type-switches on
// interfaces. Streams declare a Schema (field names + kinds) at wiring
// time; the engine checks emitted tuples against it.
//
// Low-cardinality hot strings (words, device ids) should be interned as
// symbols (Sym, InternSym): a symbol field stores a 4-byte id, compares
// and hashes without touching the text, and Str returns the interned
// name, which is stable for the life of the process.
//
// # Ownership and recycling
//
// Rows cross tasks by value: a producer fills a row from its task's
// Pool, the engine copies it into the open columnar batch of every
// destination edge and releases it, and batches — not tuples — cross
// cores and recycle over a per-edge free ring. A consumer that
// processes one row at a time gets each row copied (Batch.CopyRowTo)
// into one task-local tuple, refilled for the next row. Every tuple has
// a single owner at a time, so none carries a reference count. The
// contract for operator code:
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
	"strings"
	"time"
	"unsafe"
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

	// n counts the filled slots; kinds tags each slot's type; slots
	// holds the payload: integer bits, float bits, 0/1 booleans, symbol
	// ids, or (offset<<32 | length) ranges into arena for strings.
	n     uint8
	kinds [MaxFields]Kind
	slots [MaxFields]uint64
	// arena backs the tuple's string fields; it is recycled with the
	// tuple, keeping its capacity, so steady-state string fields cost a
	// byte copy and no allocation.
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
func (t *Tuple) Len() int { return int(t.n) }

// Kind returns the kind of field i.
func (t *Tuple) Kind(i int) Kind {
	t.check(i)
	return t.kinds[i]
}

// Reset clears the payload (fields and arena, keeping capacity) so the
// tuple can be refilled. Stream, Ts and Event are untouched.
func (t *Tuple) Reset() {
	t.n = 0
	t.arena = t.arena[:0]
}

// check panics on an out-of-range field index.
func (t *Tuple) check(i int) {
	if i < 0 || i >= int(t.n) {
		panic(fmt.Sprintf("tuple: field %d out of range (tuple has %d)", i, t.n))
	}
}

// grow reserves the next slot.
func (t *Tuple) grow() int {
	if int(t.n) >= MaxFields {
		panic(fmt.Sprintf("tuple: too many fields (max %d)", MaxFields))
	}
	i := int(t.n)
	t.n++
	return i
}

// AppendInt appends an int64 field.
func (t *Tuple) AppendInt(v int64) {
	i := t.grow()
	t.kinds[i] = KindInt
	t.slots[i] = uint64(v)
}

// AppendFloat appends a float64 field.
func (t *Tuple) AppendFloat(v float64) {
	i := t.grow()
	t.kinds[i] = KindFloat
	t.slots[i] = math.Float64bits(v)
}

// AppendBool appends a boolean field.
func (t *Tuple) AppendBool(v bool) {
	i := t.grow()
	t.kinds[i] = KindBool
	if v {
		t.slots[i] = 1
	} else {
		t.slots[i] = 0
	}
}

// AppendStr appends a string field, copying the bytes into the tuple's
// arena (no allocation once the arena capacity is warm).
func (t *Tuple) AppendStr(s string) {
	i := t.grow()
	t.kinds[i] = KindStr
	off := len(t.arena)
	t.arena = append(t.arena, s...)
	t.slots[i] = uint64(off)<<32 | uint64(len(s))
}

// AppendStrBytes appends a string field from a byte slice, copying into
// the arena (sources building records in reusable buffers use it to
// avoid the string conversion).
func (t *Tuple) AppendStrBytes(b []byte) {
	i := t.grow()
	t.kinds[i] = KindStr
	off := len(t.arena)
	t.arena = append(t.arena, b...)
	t.slots[i] = uint64(off)<<32 | uint64(len(b))
}

// AppendSym appends an interned symbol field.
func (t *Tuple) AppendSym(s Sym) {
	i := t.grow()
	t.kinds[i] = KindSym
	t.slots[i] = uint64(s)
}

// AppendKey appends a key extracted from another tuple with its kind
// preserved (window operators emit their group key this way). Appending
// the empty key panics.
func (t *Tuple) AppendKey(k Key) {
	switch k.kind {
	case KindInt:
		t.AppendInt(int64(k.num))
	case KindFloat:
		i := t.grow()
		t.kinds[i] = KindFloat
		t.slots[i] = k.num
	case KindBool:
		t.AppendBool(k.num != 0)
	case KindStr:
		t.AppendStr(k.str)
	case KindSym:
		t.AppendSym(Sym(k.num))
	default:
		panic("tuple: cannot append an empty key")
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
	if t.kinds[i] != KindInt {
		panic(fmt.Sprintf("tuple: field %d is %v, not int64", i, t.kinds[i]))
	}
	return int64(t.slots[i])
}

// Float returns field i as a float64 (an integer field is converted).
func (t *Tuple) Float(i int) float64 {
	t.check(i)
	switch t.kinds[i] {
	case KindFloat:
		return math.Float64frombits(t.slots[i])
	case KindInt:
		return float64(int64(t.slots[i]))
	default:
		panic(fmt.Sprintf("tuple: field %d is %v, not float64", i, t.kinds[i]))
	}
}

// Bool returns field i as a bool.
func (t *Tuple) Bool(i int) bool {
	t.check(i)
	if t.kinds[i] != KindBool {
		panic(fmt.Sprintf("tuple: field %d is %v, not bool", i, t.kinds[i]))
	}
	return t.slots[i] != 0
}

// Str returns field i as a string. For an ordinary string field the
// result is a zero-copy view into the tuple's arena, valid only while
// the caller holds the tuple (clone to keep it past Process). For a
// symbol field the result is the interned name, stable for the life of
// the process.
func (t *Tuple) Str(i int) string {
	t.check(i)
	switch t.kinds[i] {
	case KindStr:
		return t.strAt(i)
	case KindSym:
		return Sym(t.slots[i]).Name()
	default:
		panic(fmt.Sprintf("tuple: field %d is %v, not string", i, t.kinds[i]))
	}
}

// strAt returns the arena view of string slot i (which must be KindStr).
// The view aliases the arena: it stays valid while the tuple is held
// (a grown arena's old backing array is kept alive by the view itself)
// and dies when the tuple is recycled.
func (t *Tuple) strAt(i int) string {
	off := int(t.slots[i] >> 32)
	ln := int(t.slots[i] & 0xffffffff)
	if ln == 0 {
		return ""
	}
	return unsafe.String(&t.arena[off], ln)
}

// Sym returns field i as an interned symbol.
func (t *Tuple) Sym(i int) Sym {
	t.check(i)
	if t.kinds[i] != KindSym {
		panic(fmt.Sprintf("tuple: field %d is %v, not symbol", i, t.kinds[i]))
	}
	return Sym(t.slots[i])
}

// Key returns field i as a grouping key. A string field's key borrows
// the arena view — call Canon before storing it beyond the tuple's
// lifetime (the window operators do, only when creating new state).
func (t *Tuple) Key(i int) Key {
	t.check(i)
	k := Key{kind: t.kinds[i], num: t.slots[i]}
	if k.kind == KindStr {
		k.num = 0
		k.str = t.strAt(i)
	}
	return k
}

// Value returns field i boxed as a dynamic value (debug/capture
// surface; allocates for strings and large numbers). Symbol fields box
// their interned name, so captured output is representation-agnostic.
func (t *Tuple) Value(i int) Value {
	t.check(i)
	switch t.kinds[i] {
	case KindInt:
		return int64(t.slots[i])
	case KindFloat:
		return math.Float64frombits(t.slots[i])
	case KindBool:
		return t.slots[i] != 0
	case KindStr:
		return strings.Clone(t.strAt(i))
	case KindSym:
		return Sym(t.slots[i]).Name()
	default:
		return nil
	}
}

// Hash hashes field i for fields-grouping (inline FNV-1a, no heap
// hasher). String and symbol fields hash their text bytes — so a key
// routes identically whether it travels interned or not — integers
// hash their eight little-endian bytes, matching the historical
// encoding so key→replica assignments are unchanged.
func (t *Tuple) Hash(i int) uint64 {
	t.check(i)
	switch t.kinds[i] {
	case KindInt:
		return hashUint64(t.slots[i])
	case KindFloat:
		return hashUint64(t.slots[i])
	case KindBool:
		h := fnvOffset64
		if t.slots[i] != 0 {
			h ^= 1
		}
		return h * fnvPrime64
	case KindStr:
		return hashString(t.strAt(i))
	case KindSym:
		return hashString(Sym(t.slots[i]).Name())
	default:
		return fnvOffset64
	}
}

// String formats the tuple's payload for debugging, like a value slice:
// "[a 1 2.5]".
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < int(t.n); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kinds[i] {
		case KindInt:
			fmt.Fprintf(&b, "%d", int64(t.slots[i]))
		case KindFloat:
			fmt.Fprintf(&b, "%v", math.Float64frombits(t.slots[i]))
		case KindBool:
			fmt.Fprintf(&b, "%t", t.slots[i] != 0)
		case KindStr:
			b.WriteString(t.strAt(i))
		case KindSym:
			b.WriteString(Sym(t.slots[i]).Name())
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Size estimates the in-memory footprint of the tuple in bytes. This is
// the N statistic of the performance model (average size per tuple); the
// paper measures it with the classmexer agent, we compute it directly.
func (t *Tuple) Size() int {
	const header = 48 // struct header + stream id + timestamps
	return header + 16*int(t.n) + len(t.arena)
}

// Clone deep-copies the tuple into a fresh non-pooled allocation: how
// an operator keeps an input row past Process. The BriskStream path
// never calls this on the hot path; it is what the Storm-like
// baseline's defensive copy costs.
func (t *Tuple) Clone() *Tuple {
	c := &Tuple{Stream: t.Stream, Ts: t.Ts, Event: t.Event,
		TraceID: t.TraceID, TraceOrigin: t.TraceOrigin}
	c.copyPayload(t)
	return c
}

// CopyValuesFrom overwrites this tuple's payload with src's, leaving
// Stream, Ts and Event alone — the forwarding shape of pass-through
// operators.
func (t *Tuple) CopyValuesFrom(src *Tuple) { t.copyPayload(src) }

func (t *Tuple) copyPayload(src *Tuple) {
	t.n = src.n
	t.kinds = src.kinds
	t.slots = src.slots
	t.arena = append(t.arena[:0], src.arena...)
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
	buf = binary.BigEndian.AppendUint16(buf, uint16(t.n))
	for i := 0; i < int(t.n); i++ {
		switch t.kinds[i] {
		case KindInt:
			buf = append(buf, wireInt)
			buf = binary.BigEndian.AppendUint64(buf, t.slots[i])
		case KindFloat:
			buf = append(buf, wireFloat)
			buf = binary.BigEndian.AppendUint64(buf, t.slots[i])
		case KindStr:
			buf = append(buf, wireString)
			buf = appendString(buf, t.strAt(i))
		case KindBool:
			buf = append(buf, wireBool)
			if t.slots[i] != 0 {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case KindSym:
			buf = append(buf, wireSym)
			buf = appendString(buf, Sym(t.slots[i]).Name())
		default:
			panic(fmt.Sprintf("tuple: cannot marshal %v field", t.kinds[i]))
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
			j := t.grow()
			if k == wireInt {
				t.kinds[j] = KindInt
			} else {
				t.kinds[j] = KindFloat
			}
			t.slots[j] = binary.BigEndian.Uint64(buf[off:])
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

// FNV-1a parameters for the inline field hash.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashString FNV-1a-hashes the bytes of s.
func hashString(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashUint64 FNV-1a-hashes the eight little-endian bytes of u.
func hashUint64(u uint64) uint64 {
	h := fnvOffset64
	for i := 0; i < 8; i++ {
		h ^= (u >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}
