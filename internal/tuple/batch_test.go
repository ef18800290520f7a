package tuple

// Columnar batch coverage: Append/Fits layout adoption, per-row
// accessors and metadata against the source tuples, CopyRowTo,
// AppendRowFrom and put-row parity with the tuple path, Key/Hash
// parity (a key must route identically whether it travels as a tuple
// or a batch row), and the put-row rules. The same row copies are
// fuzzed over random layouts in rowcopy_test.go.

import (
	"math"
	"testing"
	"time"
)

// mkRow builds a tuple with the batch tests' canonical mixed layout:
// (sym, str, int, float, bool).
func mkRow(i int) *Tuple {
	t := &Tuple{}
	t.AppendSym(InternSym([]string{"alpha", "beta", "gamma"}[i%3]))
	t.AppendStr([]string{"", "one word", "the quick brown fox"}[i%3])
	t.AppendInt(int64(i) - 1)
	t.AppendFloat(float64(i) * 1.5)
	t.AppendBool(i%2 == 0)
	t.Ts = time.Unix(0, int64(1000+i))
	t.Event = int64(100 + i)
	return t
}

func TestBatchAppendAccessors(t *testing.T) {
	b := NewBatch(8)
	rows := make([]*Tuple, 5)
	for i := range rows {
		rows[i] = mkRow(i)
		if !b.Fits(rows[i]) {
			t.Fatalf("row %d does not fit a same-layout batch", i)
		}
		b.Append(rows[i])
	}
	if b.Len() != 5 || b.Cols() != 5 || b.Full() {
		t.Fatalf("Len=%d Cols=%d Full=%v, want 5, 5, false", b.Len(), b.Cols(), b.Full())
	}
	for i, tp := range rows {
		if b.Sym(0, i) != tp.Sym(0) || b.Str(1, i) != tp.Str(1) ||
			b.Int(2, i) != tp.Int(2) || b.Float(3, i) != tp.Float(3) ||
			b.Bool(4, i) != tp.Bool(4) {
			t.Errorf("row %d payload mismatch", i)
		}
		if b.StrLen(1, i) != len(tp.Str(1)) {
			t.Errorf("row %d StrLen = %d, want %d", i, b.StrLen(1, i), len(tp.Str(1)))
		}
		if !b.Ts(i).Equal(tp.Ts) || b.Event(i) != tp.Event {
			t.Errorf("row %d metadata mismatch", i)
		}
	}
	if b.HasTrace() {
		t.Error("HasTrace true with no traced rows")
	}
	traced := mkRow(5)
	traced.TraceID, traced.TraceOrigin = 42, 7
	b.Append(traced)
	if !b.HasTrace() || b.TraceID(5) != 42 || b.TraceOrigin(5) != 7 {
		t.Error("trace lane lost the traced row's context")
	}
}

func TestBatchFitsAndReset(t *testing.T) {
	b := NewBatch(4)
	other := &Tuple{}
	other.AppendInt(1)
	if !b.Fits(other) {
		t.Fatal("empty batch must fit any layout")
	}
	b.Append(mkRow(0))
	if b.Fits(other) {
		t.Error("arity mismatch reported as fitting")
	}
	kindSwap := mkRow(1)
	kindSwap.slots[2], kindSwap.kinds[2] = math.Float64bits(1), KindFloat
	if b.Fits(kindSwap) {
		t.Error("kind mismatch reported as fitting")
	}
	streamSwap := mkRow(1)
	streamSwap.Stream = Intern("batch-other-stream")
	if b.Fits(streamSwap) {
		t.Error("stream mismatch reported as fitting")
	}
	b.Reset()
	if b.Len() != 0 || b.Cols() != 0 || !b.Fits(other) {
		t.Error("Reset did not clear layout for re-adoption")
	}
	b.Append(other)
	if b.Cols() != 1 || b.Int(0, 0) != 1 {
		t.Error("post-Reset append did not adopt the new layout")
	}
}

// TestBatchCopyRowToParity pins the row adapter: a materialized row must
// be bit-identical to the appended source tuple.
func TestBatchCopyRowToParity(t *testing.T) {
	b := NewBatch(8)
	rows := make([]*Tuple, 6)
	for i := range rows {
		rows[i] = mkRow(i)
		if i%2 == 0 {
			rows[i].TraceID = uint64(i + 1)
			rows[i].TraceOrigin = int64(i)
		}
		b.Append(rows[i])
	}
	dst := &Tuple{}
	for i, want := range rows {
		b.CopyRowTo(i, dst)
		if !bitsEqual(dst, want) {
			t.Errorf("row %d: CopyRowTo changed %v -> %v", i, want, dst)
		}
	}
}

// TestBatchAppendRowFromParity pins the batch-to-batch forwarding copy:
// a row carried across by AppendRowFrom must materialize bit-identically
// to a row carried across by Append of its materialized tuple — same
// payload, same metadata lanes, same hasTrace bookkeeping — with the
// destination stream re-stamped, and FitsRowFrom must gate layout
// mismatches exactly like Fits does for tuples.
func TestBatchAppendRowFromParity(t *testing.T) {
	src := NewBatch(8)
	rows := make([]*Tuple, 6)
	for i := range rows {
		rows[i] = mkRow(i)
		if i == 3 {
			rows[i].TraceID = 42
			rows[i].TraceOrigin = 7
		}
		src.Append(rows[i])
	}
	fwd := Intern("forwarded")

	// Reference path: materialize each row, re-stamp, append.
	want := NewBatch(8)
	scratch := &Tuple{}
	for i := range rows {
		src.CopyRowTo(i, scratch)
		scratch.Stream = fwd
		want.Append(scratch)
	}

	got := NewBatch(8)
	for i := range rows {
		if !got.FitsRowFrom(src, fwd) {
			t.Fatalf("row %d: same-layout source reported as not fitting", i)
		}
		got.AppendRowFrom(src, i, fwd)
	}
	if !batchesEqual(got, want) {
		t.Fatal("AppendRowFrom diverged from materialize+Append")
	}
	if !got.HasTrace() {
		t.Error("hasTrace lost across AppendRowFrom")
	}

	// Layout gates: a different stream or different kinds must not fit a
	// non-empty batch, and an empty batch must adopt anything.
	if got.FitsRowFrom(src, Intern("other-stream")) {
		t.Error("FitsRowFrom accepted a stream change")
	}
	narrow := NewBatch(4)
	other := &Tuple{}
	other.AppendInt(1)
	other.Stream = fwd
	narrow.Append(other)
	if narrow.FitsRowFrom(src, fwd) {
		t.Error("FitsRowFrom accepted an arity/kind change")
	}
	empty := NewBatch(4)
	if !empty.FitsRowFrom(src, fwd) {
		t.Error("empty batch must adopt any source layout")
	}
}

// TestBatchKeyHashParity pins routing equivalence: every column of every
// row must group and hash exactly like the tuple field it came from.
func TestBatchKeyHashParity(t *testing.T) {
	b := NewBatch(8)
	rows := make([]*Tuple, 6)
	for i := range rows {
		rows[i] = mkRow(i)
		b.Append(rows[i])
	}
	for i, tp := range rows {
		for c := 0; c < tp.Len(); c++ {
			if b.Hash(c, i) != tp.Hash(c) {
				t.Errorf("row %d col %d: batch hash %x, tuple hash %x", i, c, b.Hash(c, i), tp.Hash(c))
			}
			if b.Key(c, i).Canon() != tp.Key(c).Canon() {
				t.Errorf("row %d col %d: key mismatch", i, c)
			}
		}
	}
}

// TestBatchPutParity: a row put field by field and committed with
// EndRowFrom lands exactly as Append of the same tuple stamped with
// StampMeta from the same source row — payload, metadata lanes and
// hasTrace — and the stream comes from ReadyFor.
func TestBatchPutParity(t *testing.T) {
	src := NewBatch(8)
	rows := make([]*Tuple, 6)
	for i := range rows {
		rows[i] = mkRow(i)
		if i == 4 {
			rows[i].TraceID, rows[i].TraceOrigin = 42, 7
		}
		src.Append(rows[i])
	}
	out := Intern("put")
	want, got := NewBatch(8), NewBatch(8)
	for i, tp := range rows {
		row := &Tuple{Stream: out}
		row.CopyValuesFrom(tp)
		src.StampMeta(i, row)
		want.Append(row)

		if !got.ReadyFor(out) {
			t.Fatalf("row %d: batch of put rows refused another", i)
		}
		got.PutSym(tp.Sym(0))
		got.PutStrBytes([]byte(tp.Str(1)))
		got.PutInt(tp.Int(2))
		got.PutFloat(tp.Float(3))
		got.PutBool(tp.Bool(4))
		got.EndRowFrom(src, i)
	}
	if err := got.PutErr(); err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(got, want) || !got.HasTrace() {
		t.Fatal("put rows diverged from StampMeta+Append")
	}
	one := NewBatch(1)
	one.ReadyFor(out)
	one.PutStr("x")
	one.EndRowFrom(src, 0)
	if one.Str(0, 0) != "x" || one.ReadyFor(out) {
		t.Error("PutStr row wrong, or a full batch accepted another")
	}
}

// TestBatchReadyForAndMismatch: ReadyFor accepts an empty batch for any
// stream and a batch of put rows for its own stream, never a batch of
// appended rows or another stream's; EndRowFrom refuses a put row of
// other kinds — it is not stored, PutErr names both layouts — until
// Reset.
func TestBatchReadyForAndMismatch(t *testing.T) {
	src := NewBatch(1)
	src.Append(mkRow(0))
	b := NewBatch(4)
	s, other := Intern("put"), Intern("put-other")
	if !b.ReadyFor(s) || b.Stream != s {
		t.Fatal("empty batch must adopt the stream")
	}
	b.PutSym(InternSym("alpha"))
	b.PutInt(1)
	b.EndRowFrom(src, 0)
	if b.ReadyFor(other) {
		t.Error("ReadyFor accepted a stream change")
	}
	b.ReadyFor(s)
	b.PutInt(2) // one field short, and of another kind
	b.EndRowFrom(src, 0)
	b.ReadyFor(s)
	b.PutSym(InternSym("beta"))
	b.PutInt(3)
	b.PutInt(4) // one field too many
	b.EndRowFrom(src, 0)
	if b.Len() != 1 {
		t.Fatalf("mis-typed put rows were stored: Len = %d", b.Len())
	}
	err := b.PutErr()
	if err == nil || err.Error() != "tuple: put row [int64] does not match the batch layout [symbol int64]" {
		t.Fatalf("PutErr = %v", err)
	}
	b.Reset()
	if b.PutErr() != nil {
		t.Error("Reset kept the refused row")
	}
	b.Append(mkRow(1))
	if b.ReadyFor(b.Stream) {
		t.Error("ReadyFor accepted a batch of appended rows")
	}
}

func TestBatchStampMeta(t *testing.T) {
	b := NewBatch(2)
	src := mkRow(0)
	src.TraceID, src.TraceOrigin = 9, 3
	b.Append(src)
	out := &Tuple{}
	b.StampMeta(0, out)
	if !out.Ts.Equal(src.Ts) || out.Event != src.Event || out.TraceID != 9 || out.TraceOrigin != 3 {
		t.Errorf("StampMeta dropped metadata: %+v", out)
	}
	// An operator-set event time survives stamping.
	out2 := &Tuple{Event: 777}
	b.StampMeta(0, out2)
	if out2.Event != 777 {
		t.Errorf("StampMeta overwrote operator-set event %d", out2.Event)
	}
}

// batchesEqual compares two batches at the bit level, the columnar
// analogue of bitsEqual.
func batchesEqual(a, b *Batch) bool {
	if a.Stream != b.Stream || a.Len() != b.Len() || a.Cols() != b.Cols() {
		return false
	}
	for c := 0; c < a.Cols(); c++ {
		if a.Kind(c) != b.Kind(c) {
			return false
		}
	}
	for r := 0; r < a.Len(); r++ {
		for c := 0; c < a.Cols(); c++ {
			switch a.Kind(c) {
			case KindStr:
				if a.Str(c, r) != b.Str(c, r) {
					return false
				}
			case KindSym:
				if a.Sym(c, r) != b.Sym(c, r) {
					return false
				}
			default:
				if a.Col(c)[r] != b.Col(c)[r] {
					return false
				}
			}
		}
		if !a.Ts(r).Equal(b.Ts(r)) || a.Event(r) != b.Event(r) ||
			a.TraceID(r) != b.TraceID(r) || a.TraceOrigin(r) != b.TraceOrigin(r) {
			return false
		}
	}
	return true
}
