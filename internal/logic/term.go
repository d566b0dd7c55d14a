// Package logic implements the function-free first-order logic substrate of
// BrAID's inference engine: terms, atoms, substitutions, unification, Horn
// clauses, knowledge bases, and the limited second-order assertions (SOAs)
// of Section 4 of the paper (mutual exclusion, functional dependency, and
// recursive-structure assertions).
//
// The language is function-free (Datalog with typed constants), matching the
// paper's IDI lineage: "a function free Horn clause query language".
package logic

import (
	"strings"

	"repro/internal/relation"
)

// Term is either a variable or a constant. Function symbols are deliberately
// absent (function-free Horn clauses).
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the constant value; meaningful only when Var is empty.
	Const relation.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v relation.Value) Term { return Term{Const: v} }

// CInt returns an integer constant term.
func CInt(i int64) Term { return C(relation.Int(i)) }

// CStr returns a string constant term.
func CStr(s string) Term { return C(relation.Str(s)) }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.Var == "" }

// Equal reports structural equality.
func (t Term) Equal(o Term) bool {
	if t.IsVar() != o.IsVar() {
		return false
	}
	if t.IsVar() {
		return t.Var == o.Var
	}
	return t.Const.Equal(o.Const)
}

// String renders the term: variables by name, constants in literal syntax
// (identifier-like strings render bare, Prolog-style).
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	if t.Const.Kind() == relation.KindString && isPlainAtom(t.Const.AsString()) {
		return t.Const.AsString()
	}
	return t.Const.String()
}

// AppendString appends the bytes of String to dst.
func (t Term) AppendString(dst []byte) []byte {
	if t.IsVar() {
		return append(dst, t.Var...)
	}
	if t.Const.Kind() == relation.KindString && isPlainAtom(t.Const.AsString()) {
		return append(dst, t.Const.AsString()...)
	}
	return t.Const.AppendString(dst)
}

// isPlainAtom reports whether s can be written bare as a Prolog-style atom:
// lowercase letter followed by letters, digits, underscores.
func isPlainAtom(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c < 'a' || c > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	// Avoid collision with reserved words.
	switch s {
	case "true", "false", "null":
		return false
	}
	return true
}

// IsVarName reports whether an identifier names a variable in the surface
// syntax: it starts with an uppercase letter or underscore.
func IsVarName(s string) bool {
	if s == "" {
		return false
	}
	return s[0] == '_' || (s[0] >= 'A' && s[0] <= 'Z')
}

// termsString renders a comma-separated argument list.
func termsString(args []Term) string {
	var b strings.Builder
	for i, a := range args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}
