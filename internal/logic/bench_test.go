package logic

import (
	"testing"

	"repro/internal/relation"
)

// BenchmarkBindingsUnify is one clause try: push the clause's frame, unify
// its head with a call in the caller's frame, and undo.
func BenchmarkBindingsUnify(b *testing.B) {
	var caller, clause Numbering
	call := caller.Number(A("p", V("X"), CInt(1), V("Y"), CStr("a"), V("Z")))
	head := clause.Number(A("p", CStr("q"), V("A"), CInt(2), V("B"), V("C")))
	var bs Bindings
	base := bs.Push(len(caller))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bs.Mark()
		if !bs.Unify(head, bs.Push(len(clause)), call, base) {
			b.Fatal("no unifier")
		}
		bs.Undo(m)
	}
}

// BenchmarkBindingsUndo is backtracking out of a recursion eight calls deep:
// each call's frame links its argument to its caller's, the innermost binds
// it to a constant, and one Undo frees it all.
func BenchmarkBindingsUndo(b *testing.B) {
	var vars Numbering
	call := vars.Number(A("anc", V("X"), V("Y")))
	var bs Bindings
	base := bs.Push(len(vars))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bs.Mark()
		caller := base
		for d := 0; d < 8; d++ {
			callee := bs.Push(len(vars))
			bs.Unify(call, callee, call, caller)
			caller = callee
		}
		bs.UnifyConst(caller, relation.Str("p001"))
		bs.Undo(m)
	}
}

func BenchmarkParseProgram(b *testing.B) {
	src := `
		:- base(b1/2).
		:- base(b2/2).
		:- base(b3/3).
		k1(X, Y) :- b1(c1, Y), k2(X, Y).
		k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).
		k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProgram(src); err != nil {
			b.Fatal(err)
		}
	}
}
