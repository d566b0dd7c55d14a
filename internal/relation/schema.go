package relation

import (
	"fmt"
	"strings"
)

// Attr describes one attribute (column) of a relation schema.
type Attr struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of attributes. Schemas are immutable once built;
// operations derive new schemas rather than mutating.
type Schema struct {
	attrs []Attr
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique; NewSchema panics otherwise (schemas are constructed from code or
// validated parse trees, so a duplicate is a programming error). A schema
// built from input is checked first, with CheckNames.
func NewSchema(attrs ...Attr) *Schema {
	if err := CheckNames(attrs); err != nil {
		panic(err.Error())
	}
	return &Schema{attrs: append([]Attr(nil), attrs...)}
}

// scanNamesBelow is the width under which CheckNames compares every pair of
// names, allocating nothing; from it up, a set makes the check linear.
const scanNamesBelow = 16

// CheckNames returns an error naming an attribute whose name an earlier one
// holds, nil when every name is unique.
func CheckNames(attrs []Attr) error {
	if len(attrs) < scanNamesBelow {
		for i, a := range attrs {
			for _, b := range attrs[:i] {
				if a.Name == b.Name {
					return fmt.Errorf("relation: attribute %q repeated", a.Name)
				}
			}
		}
		return nil
	}
	seen := make(map[string]struct{}, len(attrs))
	for _, a := range attrs {
		if _, ok := seen[a.Name]; ok {
			return fmt.Errorf("relation: attribute %q repeated", a.Name)
		}
		seen[a.Name] = struct{}{}
	}
	return nil
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attr { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attr { return append([]Attr(nil), s.attrs...) }

// ColIndex returns the position of the named attribute, or -1 if absent.
// Names are found by scanning: schemas are a handful of columns wide, and
// only planning looks names up.
func (s *Schema) ColIndex(name string) int {
	for i, a := range s.attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Project derives a schema holding the attributes at the given positions.
func (s *Schema) Project(cols []int) *Schema {
	attrs := make([]Attr, len(cols))
	for i, c := range cols {
		attrs[i] = s.attrs[c]
	}
	return NewSchema(attrs...)
}

// Rename derives a schema with the same kinds but new names. len(names) must
// equal the arity.
func (s *Schema) Rename(names []string) *Schema {
	if len(names) != len(s.attrs) {
		panic("relation: Rename arity mismatch")
	}
	attrs := make([]Attr, len(names))
	for i, n := range names {
		attrs[i] = Attr{Name: n, Kind: s.attrs[i].Kind}
	}
	return NewSchema(attrs...)
}

// Concat derives the schema of a cross product / join output, disambiguating
// duplicate names from the right side with a "r." prefix (and numeric
// suffixes if still ambiguous).
func (s *Schema) Concat(o *Schema) *Schema {
	attrs := make([]Attr, 0, len(s.attrs)+len(o.attrs))
	attrs = append(attrs, s.attrs...)
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		seen[a.Name] = true
	}
	for _, a := range o.attrs {
		name := a.Name
		for n := 2; seen[name]; n++ {
			name = fmt.Sprintf("%s_%d", a.Name, n)
		}
		seen[name] = true
		attrs = append(attrs, Attr{Name: name, Kind: a.Kind})
	}
	return NewSchema(attrs...)
}

// Equal reports whether two schemas have identical names and kinds in order.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Name, a.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is a row of values, positionally aligned with a schema.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports value-wise equality with o.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key returns a map key identifying the tuple's values (consistent with
// Equal).
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(v.Key())
		b.WriteByte('|')
	}
	return b.String()
}

// Project returns the tuple restricted to the given columns.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Less orders tuples lexicographically by value order.
func (t Tuple) Less(o Tuple) bool {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		switch t[i].Compare(o[i]) {
		case -1:
			return true
		case 1:
			return false
		}
	}
	return len(t) < len(o)
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
