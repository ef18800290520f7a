// Package vec holds small generic vectorized kernels over columnar
// tuple batches: selection-vector filters and row forwarding helpers
// the batch-aware operators compose. Filters produce a selection vector
// (row indices into the batch) instead of materializing survivors, so a
// filter→forward chain touches each dropped row once and copies nothing
// for it.
package vec

import "briskstream/internal/tuple"

// Emitter is the output half of engine.Collector the kernels need —
// structural, so vec does not depend on the engine package (operators
// pass their Collector straight in).
type Emitter interface {
	// Borrow returns an empty scratch row owned by the caller until
	// passed to Send.
	Borrow() *tuple.Tuple
	// Send emits a borrowed tuple, consuming ownership.
	Send(t *tuple.Tuple)
}

// Select appends to sel the row indices for which pred reports true,
// returning the extended selection. An operator passes a vector of its
// own, emptied, to reuse it across batches: a batch may be shared with
// other readers, so its SelScratch vector is the batch's only while the
// caller is its one reader.
func Select(b *tuple.Batch, sel []int32, pred func(r int) bool) []int32 {
	n := b.Len()
	for r := 0; r < n; r++ {
		if pred(r) {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// SelectStrNonEmpty appends to sel the rows whose string column c is
// non-empty — the common "drop blank lines" filter, kept loop-specific
// so the per-row test is a length compare, not an interface call.
func SelectStrNonEmpty(b *tuple.Batch, c int, sel []int32) []int32 {
	n := b.Len()
	for r := 0; r < n; r++ {
		if b.StrLen(c, r) > 0 {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// RowForwarder is the optional bulk-forwarding extension of Emitter:
// the engine's collector implements it to land forwarded rows with a
// direct batch-to-batch column copy (no intermediate tuple). A nil sel
// forwards every row. A forward of every row of the operator's input
// batch (nil sel, or one keeping every row in order) to a stream whose
// every route delivers each row to all of its edges (one edge, or a
// broadcast) copies nothing: the engine hands the input batch itself on
// once the operator call returns, so b must not be changed after the
// call.
type RowForwarder interface {
	ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID)
}

// ForwardRow re-emits row r of the batch on the given stream: the full
// payload and the row's own timestamp/event/trace metadata. (The engine
// does not stamp ambient context during ProcessBatch — the row's
// metadata travels with it here.)
func ForwardRow(e Emitter, b *tuple.Batch, r int, stream tuple.StreamID) {
	out := e.Borrow()
	b.CopyRowTo(r, out)
	out.Stream = stream
	e.Send(out)
}

// ForwardSel re-emits the selected rows in selection order.
func ForwardSel(e Emitter, b *tuple.Batch, sel []int32, stream tuple.StreamID) {
	if f, ok := e.(RowForwarder); ok {
		f.ForwardRows(b, sel, stream)
		return
	}
	for _, r := range sel {
		ForwardRow(e, b, int(r), stream)
	}
}

// ForwardAll re-emits every row of the batch.
func ForwardAll(e Emitter, b *tuple.Batch, stream tuple.StreamID) {
	if f, ok := e.(RowForwarder); ok {
		f.ForwardRows(b, nil, stream)
		return
	}
	n := b.Len()
	for r := 0; r < n; r++ {
		ForwardRow(e, b, r, stream)
	}
}
