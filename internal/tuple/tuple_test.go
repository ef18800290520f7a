package tuple

import (
	"math"
	"strings"
	"testing"
	"time"
)

// payloadEqual reports whether two tuples carry the same typed fields.
func payloadEqual(a, b *Tuple) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Key(i).Compare(b.Key(i)) != 0 || a.Kind(i) != b.Kind(i) {
			return false
		}
	}
	return true
}

func TestAccessors(t *testing.T) {
	tp := New(int64(7), 3.5, "word", true)
	if tp.Int(0) != 7 {
		t.Errorf("Int(0) = %d", tp.Int(0))
	}
	if tp.Float(1) != 3.5 {
		t.Errorf("Float(1) = %v", tp.Float(1))
	}
	if tp.Str(2) != "word" {
		t.Errorf("Str(2) = %q", tp.Str(2))
	}
	if !tp.Bool(3) {
		t.Errorf("Bool(3) = false")
	}
	if tp.Len() != 4 {
		t.Errorf("Len = %d", tp.Len())
	}
	if tp.Kind(2) != KindStr {
		t.Errorf("Kind(2) = %v", tp.Kind(2))
	}
	// Numeric coercions: plain Go ints normalize to int64, int slots
	// read as floats.
	if New(42).Int(0) != 42 {
		t.Error("int coercion failed")
	}
	if New(int64(2)).Float(0) != 2.0 {
		t.Error("int64->float coercion failed")
	}
}

func TestTypedAppenders(t *testing.T) {
	tp := &Tuple{}
	tp.AppendInt(-9)
	tp.AppendFloat(1.25)
	tp.AppendBool(true)
	tp.AppendStr("arena")
	tp.AppendStrBytes([]byte("bytes"))
	s := InternSym("typed-append-sym")
	tp.AppendSym(s)
	if tp.Int(0) != -9 || tp.Float(1) != 1.25 || !tp.Bool(2) {
		t.Error("numeric slots wrong")
	}
	if tp.Str(3) != "arena" || tp.Str(4) != "bytes" {
		t.Errorf("string slots wrong: %q %q", tp.Str(3), tp.Str(4))
	}
	if tp.Sym(5) != s || tp.Str(5) != "typed-append-sym" {
		t.Error("symbol slot wrong")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong kind")
		}
	}()
	New("nope").Int(0)
}

func TestTooManyFieldsPanics(t *testing.T) {
	tp := &Tuple{}
	for i := 0; i < MaxFields; i++ {
		tp.AppendInt(int64(i))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic past MaxFields")
		}
	}()
	tp.AppendInt(99)
}

func TestResetKeepsArenaCapacity(t *testing.T) {
	tp := &Tuple{}
	tp.AppendStr("a reasonably long payload string")
	capBefore := cap(tp.arena)
	tp.Reset()
	if tp.Len() != 0 {
		t.Error("Reset kept fields")
	}
	tp.AppendStr("short")
	if cap(tp.arena) != capBefore {
		t.Errorf("arena reallocated: %d -> %d", capBefore, cap(tp.arena))
	}
}

func TestOnStream(t *testing.T) {
	tp := OnStream("position_report", int64(1))
	if tp.Stream != Intern("position_report") {
		t.Errorf("stream = %v", tp.Stream)
	}
	if tp.StreamName() != "position_report" {
		t.Errorf("stream name = %q", tp.StreamName())
	}
	if New().Stream != DefaultStreamID {
		t.Error("New should use default stream")
	}
}

func TestStreamInterning(t *testing.T) {
	if Intern(DefaultStream) != DefaultStreamID {
		t.Error("default stream must intern to the zero id")
	}
	a, b := Intern("ts-one"), Intern("ts-two")
	if a == b {
		t.Error("distinct names interned to one id")
	}
	if Intern("ts-one") != a {
		t.Error("interning is not idempotent")
	}
	if a.String() != "ts-one" {
		t.Errorf("name of %v = %q", a, a.String())
	}
	if s := StreamID(1 << 30).String(); s == "" {
		t.Error("unknown id must still print")
	}
}

func TestSymbolInterning(t *testing.T) {
	a, b := InternSym("sym-one"), InternSym("sym-two")
	if a == b {
		t.Error("distinct names interned to one symbol")
	}
	if InternSym("sym-one") != a {
		t.Error("interning is not idempotent")
	}
	if a.Name() != "sym-one" {
		t.Errorf("Name = %q", a.Name())
	}
	if got, ok := LookupSym("sym-two"); !ok || got != b {
		t.Errorf("LookupSym = %v,%v", got, ok)
	}
	if _, ok := LookupSym("sym-never-registered"); ok {
		t.Error("LookupSym registered a name")
	}
	if SymCount() < 2 {
		t.Errorf("SymCount = %d", SymCount())
	}
	if s := Sym(1 << 30).Name(); s == "" {
		t.Error("unknown symbol must still print")
	}
	// Bulk interning agrees with sequential interning, handles the
	// all-present fast path, and dedups within one batch.
	bulk := InternSyms("sym-one", "sym-bulk-new", "sym-bulk-new", "sym-two")
	if bulk[0] != a || bulk[3] != b {
		t.Error("InternSyms disagrees with InternSym for existing names")
	}
	if bulk[1] != bulk[2] || bulk[1].Name() != "sym-bulk-new" {
		t.Error("InternSyms mishandled a duplicated new name")
	}
	again := InternSyms("sym-one", "sym-bulk-new")
	if again[0] != a || again[1] != bulk[1] {
		t.Error("InternSyms all-present fast path returned wrong symbols")
	}
}

func TestKeyExtractionAndCompare(t *testing.T) {
	sym := InternSym("key-sym")
	tp := New(int64(5), 2.5, true, "text", sym)
	if tp.Key(0) != IntKey(5) {
		t.Error("int key mismatch")
	}
	if tp.Key(1) != FloatKey(2.5) {
		t.Error("float key mismatch")
	}
	if tp.Key(2) != BoolKey(true) {
		t.Error("bool key mismatch")
	}
	if tp.Key(3).Str() != "text" || tp.Key(3).Kind() != KindStr {
		t.Error("string key mismatch")
	}
	if tp.Key(4) != SymKey(sym) || tp.Key(4).Str() != "key-sym" {
		t.Error("symbol key mismatch")
	}
	if IntKey(1).Compare(IntKey(2)) >= 0 || StrKey("a").Compare(StrKey("b")) >= 0 {
		t.Error("compare ordering wrong")
	}
	if IntKey(3).Compare(IntKey(3)) != 0 {
		t.Error("equal keys must compare 0")
	}
	// NaN keys: usable as map keys (bit equality) and totally ordered.
	nan := FloatKey(math.NaN())
	if nan != FloatKey(math.NaN()) {
		t.Error("NaN keys with equal bits must be equal")
	}
	m := map[Key]int{nan: 1}
	if m[FloatKey(math.NaN())] != 1 {
		t.Error("NaN key lookup failed")
	}
}

func TestKeyCanonSurvivesArenaReuse(t *testing.T) {
	tp := &Tuple{}
	tp.AppendStr("first-life")
	borrowed := tp.Key(0)
	owned := borrowed.Canon()
	tp.Reset()
	tp.AppendStr("second-life")
	if owned.Str() != "first-life" {
		t.Errorf("canonical key corrupted by arena reuse: %q", owned.Str())
	}
	// Canon of non-string kinds is the identity.
	if IntKey(7).Canon() != IntKey(7) || SymKey(InternSym("canon-sym")).Canon() != SymKey(InternSym("canon-sym")) {
		t.Error("Canon changed a non-string key")
	}
}

func TestHashMatchesAcrossRepresentations(t *testing.T) {
	// A word routed by fields-grouping must land on the same replica
	// whether it travels as an arena string or as an interned symbol.
	word := "route-me-consistently"
	ts := &Tuple{}
	ts.AppendStr(word)
	tsym := &Tuple{}
	tsym.AppendSym(InternSym(word))
	if ts.Hash(0) != tsym.Hash(0) {
		t.Error("string and symbol hashes differ")
	}
	if ts.Hash(0) != StrKey(word).Hash() || tsym.Hash(0) != SymKey(InternSym(word)).Hash() {
		t.Error("Key.Hash disagrees with Tuple.Hash")
	}
	a, b := &Tuple{}, &Tuple{}
	a.AppendInt(100042)
	b.AppendFloat(2.5)
	if a.Hash(0) == b.Hash(0) {
		t.Error("suspicious hash collision between kinds")
	}
}

func TestStrIsArenaViewSymIsStable(t *testing.T) {
	p := NewPool()
	tp := p.Get()
	tp.AppendStr("view")
	view := tp.Str(0)
	kept := strings.Clone(view)
	tp.Release()
	// The recycled tuple's arena may be overwritten by its next life;
	// the clone must be unaffected.
	tp2 := p.Get()
	tp2.AppendStr("XXXX")
	if kept != "view" {
		t.Errorf("cloned string corrupted: %q", kept)
	}
	tp2.Release()

	sym := InternSym("stable-sym")
	tp3 := p.Get()
	tp3.AppendSym(sym)
	name := tp3.Str(0)
	tp3.Release()
	if name != "stable-sym" {
		t.Errorf("symbol name not stable: %q", name)
	}
}

func TestSizeGrowsWithPayload(t *testing.T) {
	small := New(int64(1))
	big := New(int64(1), "a sentence with quite a few characters in it")
	if small.Size() >= big.Size() {
		t.Errorf("Size: small %d >= big %d", small.Size(), big.Size())
	}
	if small.Size() <= 0 {
		t.Error("size must be positive")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := New(int64(1), "x")
	c := orig.Clone()
	c.Reset()
	c.AppendInt(99)
	if orig.Int(0) != 1 || orig.Str(1) != "x" {
		t.Error("clone shares payload with original")
	}
	c2 := orig.Clone()
	if c2.Stream != orig.Stream || !c2.Ts.Equal(orig.Ts) {
		t.Error("clone lost metadata")
	}
}

func TestCopyValuesFrom(t *testing.T) {
	src := OnStream("cvf-stream", int64(3), "payload")
	src.Event = 42
	dst := &Tuple{}
	dst.AppendStr("previous life")
	dst.CopyValuesFrom(src)
	if !payloadEqual(dst, src) {
		t.Errorf("payload = %v, want %v", dst, src)
	}
	if dst.Stream == src.Stream || dst.Event == src.Event {
		t.Error("CopyValuesFrom must not copy stream/event metadata")
	}
}

func TestTupleString(t *testing.T) {
	tp := New(int64(1), "two", 2.5, true)
	if got := tp.String(); got != "[1 two 2.5 true]" {
		t.Errorf("String = %q", got)
	}
}

func TestJumbo(t *testing.T) {
	b := NewBatch(4)
	b.Append(New(int64(1)))
	b.Append(New(int64(2)))
	j := &Jumbo{Producer: 3, Batch: b}
	if j.Len() != 2 {
		t.Errorf("Len = %d", j.Len())
	}
	// A punctuation-only jumbo carries no data rows.
	p := &Jumbo{Producer: 3, Punct: Punct{Kind: PunctWatermark, Event: 7}}
	if p.Len() != 0 {
		t.Errorf("punctuation-only Len = %d, want 0", p.Len())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	orig := OnStream("s1", int64(-5), 2.75, "hello", true, false)
	orig.AppendSym(InternSym("rt-sym"))
	orig.Ts = time.Unix(0, 123456789)
	orig.Event = 987654
	buf := Marshal(orig, nil)
	got, n, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Stream != orig.Stream || !got.Ts.Equal(orig.Ts) || got.Event != orig.Event {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if !payloadEqual(got, orig) {
		t.Errorf("values = %v, want %v", got, orig)
	}
	if got.Sym(5) != orig.Sym(5) {
		t.Error("symbol did not re-intern to the same id")
	}
}

func TestMarshalZeroTimestampStaysZero(t *testing.T) {
	// Regression: tuples without a latency sample (zero Ts) must decode
	// with a zero Ts, not an arbitrary instant derived from
	// time.Time{}.UnixNano().
	orig := New(int64(1))
	got, _, err := Unmarshal(Marshal(orig, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Ts.IsZero() {
		t.Errorf("zero timestamp decoded as %v", got.Ts)
	}
}

func TestUnmarshalRejectsTruncated(t *testing.T) {
	buf := Marshal(New(int64(1), "abcdef"), nil)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Unmarshal(buf[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestUnmarshalRejectsGarbageKind(t *testing.T) {
	buf := Marshal(New(int64(1)), nil)
	// Flip the kind byte of the first value to an invalid code. Layout:
	// 4(streamlen)+len("default")+8(ts)+8(event)+8(trace id)+
	// 8(trace origin)+2(count) = kind offset.
	off := 4 + len(DefaultStream) + 8 + 8 + 8 + 8 + 2
	buf[off] = 0xEE
	if _, _, err := Unmarshal(buf); err == nil {
		t.Error("garbage kind accepted")
	}
}

func TestMultipleFramesInOneBuffer(t *testing.T) {
	var buf []byte
	buf = Marshal(New(int64(1)), buf)
	buf = Marshal(New(int64(2)), buf)
	first, n, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Unmarshal(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if first.Int(0) != 1 || second.Int(0) != 2 {
		t.Errorf("frames decoded out of order: %v %v", first, second)
	}
}

func TestSchemaCheck(t *testing.T) {
	s := NewSchema(SymField("word"), IntField("count"))
	if s.Arity() != 2 || s.Field(0).Name != "word" || s.FieldIndex("count") != 1 {
		t.Error("schema introspection wrong")
	}
	if s.FieldIndex("missing") != -1 {
		t.Error("FieldIndex of a missing field must be -1")
	}
	// Each case is checked as the one row of a batch: a batch's rows
	// share its layout, so CheckBatch covers every one of them.
	check := func(row *Tuple) error {
		b := NewBatch(1)
		b.Append(row)
		return s.CheckBatch(b)
	}
	ok := &Tuple{}
	ok.AppendSym(InternSym("schema-word"))
	ok.AppendInt(3)
	if err := check(ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// str and sym are distinct key kinds: a string slot against a
	// declared sym field must fail, or mixed-representation producers
	// would silently split downstream keyed state.
	asStr := &Tuple{}
	asStr.AppendStr("schema-word")
	asStr.AppendInt(3)
	if check(asStr) == nil {
		t.Error("string against sym field accepted; kinds must match exactly")
	}
	short := &Tuple{}
	short.AppendInt(1)
	if check(short) == nil {
		t.Error("arity mismatch accepted")
	}
	wrong := &Tuple{}
	wrong.AppendSym(InternSym("schema-word"))
	wrong.AppendFloat(3)
	if check(wrong) == nil {
		t.Error("kind mismatch accepted")
	}
	if got := s.String(); got != "(word symbol, count int64)" {
		t.Errorf("schema String = %q", got)
	}
}

func TestSchemaDeclarationPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"duplicate names": func() { NewSchema(IntField("a"), IntField("a")) },
		"empty name":      func() { NewSchema(IntField("")) },
		"bad kind":        func() { NewSchema(Field{Name: "x", Kind: Kind(99)}) },
		"too many fields": func() {
			fs := make([]Field, MaxFields+1)
			for i := range fs {
				fs[i] = IntField(string(rune('a' + i)))
			}
			NewSchema(fs...)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
