package tuple

import (
	"fmt"
	"strings"
)

// Field declares one schema field: a name (for documentation and
// index lookup) and the kind its slot must hold.
type Field struct {
	Name string
	Kind Kind
}

// Convenience field constructors for schema declarations.
func IntField(name string) Field   { return Field{Name: name, Kind: KindInt} }
func FloatField(name string) Field { return Field{Name: name, Kind: KindFloat} }
func BoolField(name string) Field  { return Field{Name: name, Kind: KindBool} }
func StrField(name string) Field   { return Field{Name: name, Kind: KindStr} }
func SymField(name string) Field   { return Field{Name: name, Kind: KindSym} }

// Schema declares the typed layout of the tuples an operator emits on
// one stream: field names and kinds, fixed at wiring time. The engine
// validates the first batch of every (task, stream) route against the
// declared schema (CheckBatch), so a mis-typed emit fails loudly at its
// source instead of as a kind panic inside a downstream consumer.
//
// Schemas are declarative: tuples do not carry a schema pointer (their
// slots are self-describing), so undeclared streams still flow — a
// schema adds checking and documentation, not a new wire format.
type Schema struct {
	fields []Field
	layout layout
}

// NewSchema builds a schema. It panics on more than MaxFields fields or
// duplicate field names — schemas are wiring-time declarations, where a
// panic is a programming error, not a data-path condition.
func NewSchema(fields ...Field) *Schema {
	if len(fields) > MaxFields {
		panic(fmt.Sprintf("tuple: schema has %d fields (max %d)", len(fields), MaxFields))
	}
	seen := map[string]bool{}
	for _, f := range fields {
		if f.Name == "" {
			panic("tuple: schema field with empty name")
		}
		if seen[f.Name] {
			panic(fmt.Sprintf("tuple: duplicate schema field %q", f.Name))
		}
		seen[f.Name] = true
		switch f.Kind {
		case KindInt, KindFloat, KindBool, KindStr, KindSym:
		default:
			panic(fmt.Sprintf("tuple: schema field %q has invalid kind %v", f.Name, f.Kind))
		}
	}
	s := &Schema{fields: append([]Field(nil), fields...)}
	s.layout.cols = len(fields)
	for i, f := range fields {
		s.layout.kinds[i] = f.Kind
	}
	return s
}

// Arity returns the number of declared fields.
func (s *Schema) Arity() int { return len(s.fields) }

// Field returns the i-th declared field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// FieldIndex returns the slot index of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i, f := range s.fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// CheckBatch validates the layout every row of b shares against the
// schema: the arity must match and every column's kind must equal its
// declaration. Strings and symbols are deliberately NOT
// interchangeable here: they hash and route identically, but grouping
// keys distinguish the kinds — replicas mixing string and symbol puts
// on one keyed stream would pass a lax check, land on the same
// consumer, and silently split its keyed state into two accumulators
// per logical key. A declared schema pins the representation so that
// class of bug dies at the first batch.
func (s *Schema) CheckBatch(b *Batch) error {
	if s.layout.same(&b.layout) {
		return nil
	}
	if b.cols != s.layout.cols {
		return fmt.Errorf("tuple: schema %s expects %d fields, tuple has %d", s, s.layout.cols, b.cols)
	}
	c := 0
	for b.kinds[c] == s.layout.kinds[c] {
		c++
	}
	f := s.fields[c]
	return fmt.Errorf("tuple: schema %s field %q wants %v, tuple has %v", s, f.Name, f.Kind, b.kinds[c])
}

// String formats the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
