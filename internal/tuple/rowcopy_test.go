package tuple

// FuzzRowCopy drives the one row copy through every hop a row takes:
// a tuple is put into a batch (PutTuple, Collector.Send's path),
// forwarded into a second batch on another stream (AppendRowFrom, a
// forward's path) and materialized again (CopyRowTo, the row adapter's
// path); the same row put field by field (the Put methods and
// EndRowFrom, Collector.Out's path) must land identically. Layouts are
// random: 0–MaxFields fields of every kind, with empty and long
// strings, symbols, any float bits (NaN payloads included) and trace
// context on or off. Each batch may hold a few earlier rows with other
// strings first, so the row under test sits at other rows and arena
// offsets at each hop.

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// fuzzSyms is the fixed symbol set the target draws from, so fuzzing
// does not grow the process-global symbol table.
var fuzzSyms = []string{"", "alpha", "rowcopy-sym", "a longer interned symbol name"}

// fuzzBytes hands out fuzz input, then zeros once it runs out.
type fuzzBytes struct{ data []byte }

func (f *fuzzBytes) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzBytes) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = f.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// str returns a string of the length the next byte gives: 0–127, or
// 64 times its low seven bits when the high bit is set (up to 8 KB).
func (f *fuzzBytes) str() string {
	n := int(f.byte())
	if n&0x80 != 0 {
		n = (n & 0x7f) * 64
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = f.byte() ^ byte(i)
	}
	return string(b)
}

// appendFuzzField appends a field of kind k (KindInt..KindSym) with a
// value drawn from f.
func appendFuzzField(tp *Tuple, k Kind, f *fuzzBytes) {
	switch k {
	case KindInt:
		tp.AppendInt(int64(f.u64()))
	case KindFloat:
		tp.AppendFloat(math.Float64frombits(f.u64()))
	case KindBool:
		tp.AppendBool(f.byte()&1 == 1)
	case KindStr:
		tp.AppendStr(f.str())
	case KindSym:
		tp.AppendSym(InternSym(fuzzSyms[int(f.byte())%len(fuzzSyms)]))
	}
}

// fuzzKind maps a byte onto KindInt..KindSym.
func fuzzKind(b byte) Kind { return KindInt + Kind(b%5) }

// fuzzRow builds a tuple on stream s from fuzz input: a field count,
// then a kind byte and a value per field, then the header.
func fuzzRow(data []byte, s StreamID, traced bool) *Tuple {
	f := &fuzzBytes{data}
	tp := &Tuple{Stream: s}
	for n := int(f.byte()) % (MaxFields + 1); n > 0; n-- {
		appendFuzzField(tp, fuzzKind(f.byte()), f)
	}
	tp.Ts = time.Unix(0, int64(f.u64()>>2))
	tp.Event = int64(f.u64())
	if traced {
		tp.TraceID = f.u64() | 1
		tp.TraceOrigin = int64(f.u64())
	}
	return tp
}

// putFields puts tp's fields into b as the row being put.
func putFields(b *Batch, tp *Tuple) {
	for c := 0; c < tp.Len(); c++ {
		switch tp.Kind(c) {
		case KindInt:
			b.PutInt(tp.Int(c))
		case KindFloat:
			b.PutFloat(tp.Float(c))
		case KindBool:
			b.PutBool(tp.Bool(c))
		case KindStr:
			b.PutStrBytes([]byte(tp.Str(c)))
		case KindSym:
			b.PutSym(tp.Sym(c))
		}
	}
}

// fillerRow is a row of tp's layout on stream s whose strings differ
// from tp's, so a string range left pointing at the wrong row's bytes
// reads the wrong text.
func fillerRow(tp *Tuple, s StreamID, i int) *Tuple {
	f := &Tuple{Stream: s}
	for c := 0; c < tp.Len(); c++ {
		if tp.Kind(c) == KindStr {
			f.AppendStr(strings.Repeat("~", 1+i+c))
		} else {
			f.AppendKey(tp.Key(c))
		}
	}
	return f
}

// Layout gates the fuzz input selects (the gate argument modulo 4).
const (
	gateSame   = iota // a row of the same layout fits
	gateStream        // a stream change does not fit
	gateKind          // a kind change does not fit
	gateArity         // an arity change does not fit
)

// fuzzSeed encodes one seed layout: each field is (kind byte, value).
func fuzzSeed(fields ...[]byte) []byte {
	seed := []byte{byte(len(fields))}
	for _, f := range fields {
		seed = append(seed, f...)
	}
	return append(seed, bytes.Repeat([]byte{0x5a}, 40)...)
}

func FuzzRowCopy(f *testing.F) {
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())|1)
	i64 := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	every := fuzzSeed(
		append([]byte{0}, i64(math.MinInt64)...),   // int
		append([]byte{1}, nan...),                  // NaN float
		[]byte{2, 1},                               // bool
		[]byte{3, 0},                               // empty string
		append([]byte{3, 0x83}, []byte("long")...), // 192-byte string
		[]byte{4, 0},                               // empty symbol
		[]byte{4, 2},                               // symbol
		append([]byte{3, 5}, []byte("short")...),   // string
	)
	f.Add(every, uint8(0), false, uint8(gateSame))
	f.Add(every, uint8(3), true, uint8(gateSame))
	f.Add(every, uint8(4), true, uint8(gateSame))      // filler rows in b2 only
	f.Add(every, uint8(15), true, uint8(gateSame))     // three in each
	f.Add(fuzzSeed(), uint8(1), true, uint8(gateSame)) // no fields
	f.Add(every, uint8(2), false, uint8(gateStream))
	f.Add(every, uint8(1), true, uint8(gateKind))
	f.Add(fuzzSeed([]byte{3, 3, 'a', 'b', 'c'}, []byte{0, 7}), uint8(2), false, uint8(gateKind))
	f.Add(fuzzSeed([]byte{0, 7}), uint8(1), false, uint8(gateArity))

	s1, s2 := Intern("rowcopy-in"), Intern("rowcopy-fwd")
	f.Fuzz(func(t *testing.T, data []byte, pre uint8, traced bool, gate uint8) {
		tp := fuzzRow(data, s1, traced)
		tp.Stream = s2
		want := Marshal(tp, nil) // the row as it must arrive: re-stamped onto s2
		tp.Stream = s1

		// Hop 1: put into b1 behind p1 filler rows. Hop 2: forward into
		// b2 on s2 behind p2 filler rows. Hop 3: materialize.
		p1, p2 := int(pre%4), int(pre/4%4)
		b1, b2 := NewBatch(p1+1), NewBatch(p2+1)
		for i := 0; i <= p1; i++ {
			if !b1.ReadyFor(s1) {
				t.Fatalf("batch of put rows refused put row %d", i)
			}
			if i < p1 {
				b1.PutTuple(fillerRow(tp, s1, i))
			} else {
				b1.PutTuple(tp)
			}
		}
		for i := 0; i < p2; i++ {
			b2.Append(fillerRow(tp, s2, p1+i))
		}
		if !b2.FitsRowFrom(b1, s2) {
			t.Fatal("same-layout source does not fit")
		}
		b2.AppendRowFrom(b1, p1, s2)
		dst := &Tuple{}
		b2.CopyRowTo(p2, dst)
		if got := Marshal(dst, nil); !bytes.Equal(got, want) {
			t.Fatalf("row %v came back as %v:\n %x\n %x", tp, dst, want, got)
		}
		if !dst.Ts.Equal(tp.Ts) || b1.HasTrace() != traced || b2.HasTrace() != traced ||
			b1.PutErr() != nil || b1.Len() != p1+1 || b2.Len() != p2+1 {
			t.Fatalf("metadata lost: ts %v want %v, HasTrace %v/%v want %v, PutErr %v",
				dst.Ts, tp.Ts, b1.HasTrace(), b2.HasTrace(), traced, b1.PutErr())
		}

		// The same row put field by field lands identically.
		b3 := NewBatch(1)
		b3.ReadyFor(s2)
		putFields(b3, tp)
		b3.EndRowFrom(b1, p1)
		put := &Tuple{}
		b3.CopyRowTo(0, put)
		if got := Marshal(put, nil); !bytes.Equal(got, want) || b3.PutErr() != nil {
			t.Fatalf("put row %v came back as %v (%v)", tp, put, b3.PutErr())
		}

		// Key and Hash agree at every hop.
		for c := 0; c < tp.Len(); c++ {
			k, h := tp.Key(c), tp.Hash(c)
			if k.Hash() != h ||
				b1.Key(c, p1) != k || b1.Hash(c, p1) != h ||
				b2.Key(c, p2) != k || b2.Hash(c, p2) != h ||
				dst.Key(c) != k || dst.Hash(c) != h {
				t.Fatalf("field %d: key or hash changed along the path (%v)", c, k)
			}
		}

		// The layout gates: another row fits a non-empty batch only on
		// the same stream, arity and kinds; an empty batch fits anything.
		other := tp.Clone()
		fits := true
		switch gate % 4 {
		case gateStream:
			other.Stream = Intern("rowcopy-other")
			fits = false
		case gateKind:
			if tp.Len() == 0 {
				return
			}
			c := int(gate/4) % tp.Len()
			other = &Tuple{Stream: s1}
			rest := &fuzzBytes{data}
			for i := 0; i < tp.Len(); i++ {
				k := tp.Kind(i)
				if i == c {
					k = fuzzKind(byte(k)) // the next kind round, never k itself
				}
				appendFuzzField(other, k, rest)
			}
			fits = false
		case gateArity:
			if tp.Len() == MaxFields {
				return
			}
			other.AppendInt(1)
			fits = false
		}
		fwd := s2 // forwarded on other's stream when that changed
		if other.Stream != s1 {
			fwd = other.Stream
		}
		ob := NewBatch(1)
		if !ob.Fits(other) || !ob.FitsRowFrom(b1, fwd) {
			t.Fatal("an empty batch must fit any layout")
		}
		ob.Append(other)
		if b1.Fits(other) != fits || b2.FitsRowFrom(ob, fwd) != fits {
			t.Fatalf("gate %d: Fits %v, FitsRowFrom %v, want %v",
				gate%4, b1.Fits(other), b2.FitsRowFrom(ob, fwd), fits)
		}
	})
}
