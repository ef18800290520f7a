package tuple

// The one row payload. Tuple and Batch store rows the same way: a
// layout (arity and field kinds), a slot lane per field and a string
// arena. Field c of row r of a batch is slots[c*rows+r] — integer bits,
// float bits, 0/1 booleans, symbol ids, or (offset<<32 | length) ranges
// into the arena for strings — and a tuple is the same payload at one
// row, field c in its inline slots[c]. So a field is decoded once
// (fieldKey and the Key decoders), a row is copied once (copyRow) and
// a layout is compared once (same), for both.

import (
	"fmt"
	"unsafe"
)

// layout is the shape every row of a payload shares: its arity and the
// kind of each field. Kinds past cols are KindNone (every write of a
// layout keeps them so), so two layouts compare whole.
type layout struct {
	cols  int
	kinds [MaxFields]Kind
}

// same reports whether o has l's arity and field kinds: the one layout
// compare behind Fits, FitsRowFrom, a put row's admission and
// Schema.CheckBatch.
func (l *layout) same(o *layout) bool { return *l == *o }

// list returns the layout's kinds, for messages.
func (l *layout) list() []Kind { return l.kinds[:l.cols] }

// rowHeader is the per-row header the Size estimates charge besides
// the slots: stream id, latency timestamp, event time and trace context.
const rowHeader = 48

// size estimates the in-memory footprint of rows rows of this layout
// whose strings take arena bytes.
func (l *layout) size(rows, arena int) int { return rows*(rowHeader+16*l.cols) + arena }

// view returns the arena bytes of string slot v. The view aliases the
// arena: it stays valid while the payload is held (a grown arena's old
// backing array is kept alive by the view itself) and dies when the
// payload is recycled.
func view(arena []byte, v uint64) string {
	n := int(v & 0xffffffff)
	if n == 0 {
		return ""
	}
	return unsafe.String(&arena[v>>32], n)
}

// appendStr copies s into *arena and returns its string slot.
func appendStr(arena *[]byte, s string) uint64 {
	off := len(*arena)
	*arena = append(*arena, s...)
	return uint64(off)<<32 | uint64(len(s))
}

// bytesView is b's bytes as a string, for a copy into an arena; it must
// not outlive b's contents.
func bytesView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// fieldKey decodes slot v of kind k over arena: every typed read of a
// Tuple field or a Batch cell goes through it and the Key decoders. A
// string field's key borrows the arena view.
func fieldKey(k Kind, v uint64, arena []byte) Key {
	if k == KindStr {
		return Key{kind: k, str: view(arena, v)}
	}
	return Key{kind: k, num: v}
}

// copyRow copies one row of layout l from the lane src (field c at
// src[c*srcStride]) with strings in srcArena into the lane dst (field c
// at dst[c*stride]): numeric slots verbatim, string fields rebased onto
// *arena. It is the one row copy behind Append, PutTuple,
// AppendRowFrom, CopyRowTo and Clone; a tuple's lane is its inline
// slots at stride 1. String fields are rebased in a second pass, so a
// row without strings runs a loop with no call in it.
func (l *layout) copyRow(dst []uint64, stride int, arena *[]byte, src []uint64, srcStride int, srcArena []byte) {
	strs := false
	for c, d, s := 0, 0, 0; c < l.cols; c, d, s = c+1, d+stride, s+srcStride {
		dst[d] = src[s]
		strs = strs || l.kinds[c] == KindStr
	}
	if !strs {
		return
	}
	for c, d := 0, 0; c < l.cols; c, d = c+1, d+stride {
		if l.kinds[c] == KindStr {
			dst[d] = appendStr(arena, view(srcArena, dst[d]))
		}
	}
}

// kindErr is the panic message for a read of field c (c < 0: of a key)
// as kind want.
func kindErr(c int, got, want Kind) string {
	if c < 0 {
		return fmt.Sprintf("tuple: key is %v, not %v", got, want)
	}
	return fmt.Sprintf("tuple: field %d is %v, not %v", c, got, want)
}

// boolSlot is a boolean's slot value.
func boolSlot(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
