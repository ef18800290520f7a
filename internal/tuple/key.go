package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// Key is a typed grouping key extracted from one tuple field: the value
// the window operators and keyed stores index state by. Key is a small
// comparable struct — usable directly as a Go map key — and preserves
// the field's kind, so an int64 key restored from a snapshot equals the
// key a replayed tuple produces (no boxing, no int canonicalization).
//
// Float keys compare and hash by their IEEE-754 bits, so NaN keys are
// well-behaved map keys. A key of kind KindStr taken from a tuple
// borrows the tuple's arena: call Canon before storing it beyond
// the tuple's lifetime. Symbol keys carry only the id and are always
// safe to store.
type Key struct {
	kind Kind
	num  uint64
	str  string
}

// IntKey builds an int64 key.
func IntKey(v int64) Key { return Key{kind: KindInt, num: uint64(v)} }

// FloatKey builds a float64 key (indexed by bits).
func FloatKey(v float64) Key { return Key{kind: KindFloat, num: math.Float64bits(v)} }

// BoolKey builds a boolean key.
func BoolKey(v bool) Key { return Key{kind: KindBool, num: boolSlot(v)} }

// StrKey builds a string key. The key aliases s; it is stable if s is.
func StrKey(s string) Key { return Key{kind: KindStr, str: s} }

// SymKey builds an interned-symbol key.
func SymKey(s Sym) Key { return Key{kind: KindSym, num: uint64(s)} }

// Kind returns the key's kind (KindNone for the empty key of global,
// unkeyed windows).
func (k Key) Kind() Kind { return k.kind }

// Int returns an int64 key's value.
func (k Key) Int() int64 { return k.asInt(-1) }

// Float returns a float64 key's value. Unlike a field's, an int64 key
// does not convert.
func (k Key) Float() float64 {
	if k.kind != KindFloat {
		panic(kindErr(-1, k.kind, KindFloat))
	}
	return math.Float64frombits(k.num)
}

// Bool returns a boolean key's value.
func (k Key) Bool() bool { return k.asBool(-1) }

// Str returns a string or symbol key's text.
func (k Key) Str() string { return k.asStr(-1) }

// Sym returns a symbol key's id.
func (k Key) Sym() Sym { return k.asSym(-1) }

// The per-kind decoders behind the typed reads of a Key, a Tuple field
// and a Batch cell; c names the field in the kind panic (c < 0: a key).

func (k Key) asInt(c int) int64 {
	if k.kind != KindInt {
		panic(kindErr(c, k.kind, KindInt))
	}
	return int64(k.num)
}

// asFloat converts an int64 field.
func (k Key) asFloat(c int) float64 {
	switch k.kind {
	case KindFloat:
		return math.Float64frombits(k.num)
	case KindInt:
		return float64(int64(k.num))
	}
	panic(kindErr(c, k.kind, KindFloat))
}

func (k Key) asBool(c int) bool {
	if k.kind != KindBool {
		panic(kindErr(c, k.kind, KindBool))
	}
	return k.num != 0
}

// asStr returns a string field's text (an arena view for one taken from
// a payload) or a symbol's interned name.
func (k Key) asStr(c int) string {
	if k.kind != KindStr {
		return k.symName(c)
	}
	return k.str
}

// symName is asStr for a non-string kind, kept out of line so asStr
// inlines.
func (k Key) symName(c int) string {
	if k.kind != KindSym {
		panic(kindErr(c, k.kind, KindStr))
	}
	return Sym(k.num).Name()
}

func (k Key) asSym(c int) Sym {
	if k.kind != KindSym {
		panic(kindErr(c, k.kind, KindSym))
	}
	return Sym(k.num)
}

// Canon returns a key safe to store beyond the source tuple's lifetime:
// a string key's arena view is cloned; every other kind is returned
// unchanged (and allocation-free).
func (k Key) Canon() Key {
	if k.kind == KindStr {
		k.str = strings.Clone(k.str)
	}
	return k
}

// Compare orders keys deterministically: by kind first, then by value —
// integers and booleans numerically, floats by numeric order with a
// bit-pattern tiebreak (so -0.0/0.0 and distinct NaN payloads still
// order totally), strings and symbols by their text. The order is
// stable across processes, which is what makes snapshot encodings of
// keyed state byte-stable.
func (k Key) Compare(o Key) int {
	if k.kind != o.kind {
		return cmp.Compare(k.kind, o.kind)
	}
	switch k.kind {
	case KindInt:
		return cmp.Compare(int64(k.num), int64(o.num))
	case KindFloat:
		if d := cmp.Compare(math.Float64frombits(k.num), math.Float64frombits(o.num)); d != 0 {
			return d
		}
		return cmp.Compare(k.num, o.num)
	case KindBool:
		return cmp.Compare(k.num, o.num)
	case KindStr:
		return strings.Compare(k.str, o.str)
	case KindSym:
		return strings.Compare(Sym(k.num).Name(), Sym(o.num).Name())
	default:
		return 0
	}
}

// Hash hashes the key for fields-grouping (inline FNV-1a, no heap
// hasher); Tuple.Hash and Batch.Hash are this hash of the field's key.
// String and symbol keys hash their text bytes — so a key routes
// identically whether it travels interned or not — and integers their
// eight little-endian bytes, matching the historical encoding so
// key→replica assignments are unchanged.
func (k Key) Hash() uint64 {
	switch k.kind {
	case KindInt, KindFloat:
		return hashUint64(k.num)
	case KindBool:
		h := fnvOffset64
		if k.num != 0 {
			h ^= 1
		}
		return h * fnvPrime64
	case KindStr:
		return hashString(k.str)
	case KindSym:
		return hashString(Sym(k.num).Name())
	default:
		return fnvOffset64
	}
}

// String formats the key for debugging; Tuple.String formats each
// field this way.
func (k Key) String() string {
	switch k.kind {
	case KindInt:
		return fmt.Sprintf("%d", int64(k.num))
	case KindFloat:
		return fmt.Sprintf("%v", math.Float64frombits(k.num))
	case KindBool:
		return fmt.Sprintf("%t", k.num != 0)
	case KindStr, KindSym:
		return k.asStr(-1)
	default:
		return "<nil>"
	}
}

// FNV-1a parameters for the inline key hash.
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
