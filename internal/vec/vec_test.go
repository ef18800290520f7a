package vec

import (
	"slices"
	"testing"
	"time"

	"briskstream/internal/tuple"
)

// testBatch holds rows (word, n, score) with word = words[r], n = r and
// score = r + 0.5; row r carries its own event time, latency stamp and
// trace context so metadata propagation is observable per row.
func testBatch(words ...string) *tuple.Batch {
	b := tuple.NewBatch(max(len(words), 1))
	for r, w := range words {
		t := tuple.New(w, int64(r), float64(r)+0.5)
		t.Event = int64(100 + r)
		t.Ts = time.Unix(0, int64(1000+r))
		t.TraceID = uint64(10 + r)
		t.TraceOrigin = int64(500 + r)
		b.Append(t)
	}
	return b
}

// sliceEmitter is a plain Emitter: every Send is recorded.
type sliceEmitter struct{ sent []*tuple.Tuple }

func (e *sliceEmitter) Borrow() *tuple.Tuple { return tuple.New() }
func (e *sliceEmitter) Send(t *tuple.Tuple)  { e.sent = append(e.sent, t) }

// bulkEmitter also implements RowForwarder and records the bulk calls.
type bulkEmitter struct {
	sliceEmitter
	calls   int
	batch   *tuple.Batch
	sel     []int32
	stream  tuple.StreamID
	borrows int
}

func (e *bulkEmitter) Borrow() *tuple.Tuple {
	e.borrows++
	return e.sliceEmitter.Borrow()
}

func (e *bulkEmitter) ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID) {
	e.calls++
	e.batch, e.sel, e.stream = b, sel, stream
}

func TestSelect(t *testing.T) {
	b := testBatch("a", "", "c", "")
	odd := func(r int) bool { return r%2 == 1 }

	if got := Select(b, nil, odd); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("Select(nil sel) = %v, want [1 3]", got)
	}
	// A non-nil selection is extended, not replaced.
	if got := Select(b, []int32{7}, odd); !slices.Equal(got, []int32{7, 1, 3}) {
		t.Errorf("Select(prefilled sel) = %v, want [7 1 3]", got)
	}
	if got := Select(b, nil, func(int) bool { return true }); !slices.Equal(got, []int32{0, 1, 2, 3}) {
		t.Errorf("Select(all) = %v", got)
	}
	if got := Select(b, nil, func(int) bool { return false }); len(got) != 0 {
		t.Errorf("Select(none) = %v, want empty", got)
	}
	calls := 0
	if got := Select(testBatch(), nil, func(int) bool { calls++; return true }); len(got) != 0 || calls != 0 {
		t.Errorf("Select on an empty batch = %v after %d predicate calls", got, calls)
	}
	// The batch's scratch vector is reused across kernels: same backing
	// array, emptied each time, no growth.
	first := Select(b, b.SelScratch(), odd)
	second := Select(b, b.SelScratch(), func(r int) bool { return r == 0 })
	if !slices.Equal(second, []int32{0}) {
		t.Errorf("Select into reused scratch = %v, want [0]", second)
	}
	if &first[0] != &second[0] {
		t.Error("SelScratch did not hand back the same backing array")
	}
}

func TestSelectStrNonEmpty(t *testing.T) {
	b := testBatch("a", "", "c", "")
	if got := SelectStrNonEmpty(b, 0, nil); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("SelectStrNonEmpty(nil sel) = %v, want [0 2]", got)
	}
	if got := SelectStrNonEmpty(b, 0, []int32{9}); !slices.Equal(got, []int32{9, 0, 2}) {
		t.Errorf("SelectStrNonEmpty(prefilled sel) = %v, want [9 0 2]", got)
	}
	if got := SelectStrNonEmpty(testBatch("x", "y"), 0, nil); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("all non-empty = %v", got)
	}
	if got := SelectStrNonEmpty(testBatch("", ""), 0, nil); len(got) != 0 {
		t.Errorf("all empty = %v, want none", got)
	}
	if got := SelectStrNonEmpty(testBatch(), 0, b.SelScratch()); len(got) != 0 {
		t.Errorf("empty batch = %v, want none", got)
	}
}

// wantRow checks that out is row r of testBatch re-emitted whole on the
// given stream.
func wantRow(t *testing.T, out *tuple.Tuple, words []string, r int, stream tuple.StreamID) {
	t.Helper()
	if out.Len() != 3 || out.Str(0) != words[r] || out.Int(1) != int64(r) || out.Float(2) != float64(r)+0.5 {
		t.Errorf("row %d payload = %v", r, out)
	}
	if out.Stream != stream {
		t.Errorf("row %d stream = %v, want %v", r, out.Stream, stream)
	}
	wantMeta(t, out, r)
}

func wantMeta(t *testing.T, out *tuple.Tuple, r int) {
	t.Helper()
	if out.Event != int64(100+r) || !out.Ts.Equal(time.Unix(0, int64(1000+r))) ||
		out.TraceID != uint64(10+r) || out.TraceOrigin != int64(500+r) {
		t.Errorf("row %d metadata = event %d ts %v trace %d/%d", r, out.Event, out.Ts, out.TraceID, out.TraceOrigin)
	}
}

func TestForwardMaterializesPerRowWithoutRowForwarder(t *testing.T) {
	words := []string{"a", "b", "c"}
	b := testBatch(words...)
	stream := tuple.Intern("vec-test-out")

	var all sliceEmitter
	ForwardAll(&all, b, stream)
	if len(all.sent) != 3 {
		t.Fatalf("ForwardAll sent %d tuples, want 3", len(all.sent))
	}
	for r, out := range all.sent {
		wantRow(t, out, words, r, stream)
	}

	// Selection order, not row order.
	var some sliceEmitter
	ForwardSel(&some, b, []int32{2, 0}, stream)
	if len(some.sent) != 2 {
		t.Fatalf("ForwardSel sent %d tuples, want 2", len(some.sent))
	}
	wantRow(t, some.sent[0], words, 2, stream)
	wantRow(t, some.sent[1], words, 0, stream)

	// Selecting every row is ForwardAll.
	var viaSel sliceEmitter
	ForwardSel(&viaSel, b, []int32{0, 1, 2}, stream)
	for r := range all.sent {
		if all.sent[r].String() != viaSel.sent[r].String() || all.sent[r].Event != viaSel.sent[r].Event {
			t.Errorf("row %d: ForwardAll %v vs ForwardSel(all) %v", r, all.sent[r], viaSel.sent[r])
		}
	}

	var none sliceEmitter
	ForwardSel(&none, b, nil, stream)
	ForwardAll(&none, testBatch(), stream)
	if len(none.sent) != 0 {
		t.Errorf("empty selection / empty batch sent %d tuples", len(none.sent))
	}
}

func TestForwardUsesRowForwarderWhenOffered(t *testing.T) {
	b := testBatch("a", "b", "c")
	stream := tuple.Intern("vec-test-out")

	var e bulkEmitter
	sel := []int32{2, 0}
	ForwardSel(&e, b, sel, stream)
	if e.calls != 1 || e.batch != b || !slices.Equal(e.sel, sel) || e.stream != stream {
		t.Errorf("ForwardSel -> ForwardRows calls=%d batch=%p sel=%v stream=%v", e.calls, e.batch, e.sel, e.stream)
	}
	ForwardAll(&e, b, stream)
	if e.calls != 2 || e.batch != b || e.sel != nil || e.stream != stream {
		t.Errorf("ForwardAll -> ForwardRows calls=%d sel=%v (want the every-row nil selection)", e.calls, e.sel)
	}
	if e.borrows != 0 || len(e.sent) != 0 {
		t.Errorf("bulk forwarding still materialized: %d borrows, %d sends", e.borrows, len(e.sent))
	}
}
