package logic

import (
	"slices"

	"repro/internal/relation"
)

// NumAtom is an atom whose variables are numbered within their clause:
// Nums[i] is the number of argument i's variable, or -1 where Args[i] is a
// constant. The names stay in Args for rendering.
type NumAtom struct {
	Atom
	Nums []int32
}

// Numbering numbers the variables of one clause by first occurrence: the
// i-th name is variable i.
type Numbering []string

// AppendNums appends the numbers of a's arguments to dst, numbering the
// variables n has not seen yet, and returns dst.
func (n *Numbering) AppendNums(dst []int32, a Atom) []int32 {
	for _, t := range a.Args {
		if !t.IsVar() {
			dst = append(dst, -1)
			continue
		}
		k := slices.Index(*n, t.Var)
		if k < 0 {
			k = len(*n)
			*n = append(*n, t.Var)
		}
		dst = append(dst, int32(k))
	}
	return dst
}

// Number returns a with its variables numbered in n.
func (n *Numbering) Number(a Atom) NumAtom {
	return NumAtom{Atom: a, Nums: n.AppendNums(make([]int32, 0, len(a.Args)), a)}
}

// Bindings is the variable store of one SLD search: one array of cells and an
// undo trail. Applying a clause pushes a frame of one cell per clause
// variable, so variable v of the application is cell base+v and renaming
// apart is the frame's offset. Unification binds free cells and records them
// on the trail; Undo pops the trail and drops the frames pushed since a Mark.
// A free cell is only ever linked to an older one, so a root is the oldest
// cell of its alias class. Terms are function-free, so a cell holds a
// constant or a link and unification needs no occurs check.
type Bindings struct {
	cells []cell
	trail []int32
}

// cell is free (link 0), linked to cell link-1 (link > 0), or bound to val
// (link < 0). The zero cell is free, so a pushed frame needs only clearing.
type cell struct {
	val  relation.Value
	link int32
}

// Mark is a state of a Bindings that Undo returns to.
type Mark struct{ cells, trail int }

// Mark returns the current state.
func (b *Bindings) Mark() Mark { return Mark{len(b.cells), len(b.trail)} }

// Undo frees every cell bound since m and drops the frames pushed since m.
func (b *Bindings) Undo(m Mark) {
	for _, c := range b.trail[m.trail:] {
		b.cells[c] = cell{}
	}
	b.trail = b.trail[:m.trail]
	b.cells = b.cells[:m.cells]
}

// Push adds a frame of n free cells and returns its base.
func (b *Bindings) Push(n int) int {
	base := len(b.cells)
	b.cells = slices.Grow(b.cells, n)[:base+n]
	clear(b.cells[base:])
	return base
}

// Resolve follows cell i's links to its root and returns the constant the
// root is bound to (ok true) or, when it is free, its index.
func (b *Bindings) Resolve(i int) (root int, v relation.Value, ok bool) {
	for {
		c := &b.cells[i]
		switch {
		case c.link == 0:
			return i, relation.Value{}, false
		case c.link < 0:
			return i, c.val, true
		}
		i = int(c.link) - 1
	}
}

// UnifyConst binds cell i's root to v when it is free, and otherwise reports
// whether the constant it is bound to equals v.
func (b *Bindings) UnifyConst(i int, v relation.Value) bool {
	root, c, ok := b.Resolve(i)
	if ok {
		return c.Equal(v)
	}
	b.cells[root] = cell{val: v, link: -1}
	b.trail = append(b.trail, int32(root))
	return true
}

// Unify unifies x, numbered in the frame at xbase, with y, numbered in the
// frame at ybase. On failure some cells may be bound already: Undo to a Mark
// taken before.
func (b *Bindings) Unify(x NumAtom, xbase int, y NumAtom, ybase int) bool {
	if x.Pred != y.Pred || len(x.Args) != len(y.Args) {
		return false
	}
	for i, xn := range x.Nums {
		yn := y.Nums[i]
		var ok bool
		switch {
		case xn < 0 && yn < 0:
			ok = x.Args[i].Const.Equal(y.Args[i].Const)
		case xn < 0:
			ok = b.UnifyConst(ybase+int(yn), x.Args[i].Const)
		case yn < 0:
			ok = b.UnifyConst(xbase+int(xn), y.Args[i].Const)
		default:
			ok = b.unifyCells(xbase+int(xn), ybase+int(yn))
		}
		if !ok {
			return false
		}
	}
	return true
}

// unifyCells unifies cells i and j: two free roots are linked younger to
// older.
func (b *Bindings) unifyCells(i, j int) bool {
	ri, ci, iok := b.Resolve(i)
	rj, cj, jok := b.Resolve(j)
	switch {
	case iok && jok:
		return ci.Equal(cj)
	case iok:
		return b.UnifyConst(rj, ci)
	case jok:
		return b.UnifyConst(ri, cj)
	case ri == rj:
		return true
	}
	if ri < rj {
		ri, rj = rj, ri
	}
	b.cells[ri].link = int32(rj) + 1
	b.trail = append(b.trail, int32(ri))
	return true
}
