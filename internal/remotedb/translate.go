package remotedb

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Translation is the output of translating a CAQL conjunctive query into the
// remote DBMS's DML, plus the reassembly recipe for rebuilding the CAQL head
// row from a SQL result row (SQL's select list cannot carry constants or
// duplicate a column, so the translator projects each distinct head variable
// once and the reassembly step re-expands).
type Translation struct {
	// SQL is the translated SELECT as text (what actually crosses the wire).
	SQL string
	// HeadIdx maps each CAQL head position to an index in the SQL select
	// list, or -1 when the position is a constant.
	HeadIdx []int
	// Consts holds the constant for each head position with HeadIdx -1.
	Consts []relation.Value
	// identity marks a head that is its select list (HeadIdx is 0..n-1, no
	// constant): a result row is its head row.
	identity bool
}

// TranslateCAQL compiles a CAQL conjunctive query into the SQL subset. Every
// relational atom becomes an aliased table reference; constants in atoms
// become equality conditions; shared variables become join conditions;
// comparison atoms become WHERE conjuncts. The caller supplies base relation
// schemas through src.
func TranslateCAQL(q *caql.Query, src caql.SchemaSource) (*Translation, error) {
	sel, tr, err := compileCAQL(q, src)
	if err != nil {
		return nil, err
	}
	tr.SQL = sel.String()
	return tr, nil
}

// compileCAQL is TranslateCAQL short of rendering the SQL text.
func compileCAQL(q *caql.Query, src caql.SchemaSource) (*SelectStmt, *Translation, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	sel := &SelectStmt{Limit: -1}
	// varSite maps each variable to its first (alias, column-name) site.
	type site struct {
		alias string
		col   string
	}
	varSite := make(map[string]site)

	for ai, atom := range q.Rels {
		sch, err := src.RelationSchema(atom.Pred, len(atom.Args))
		if err != nil {
			return nil, nil, err
		}
		alias := fmt.Sprintf("t%d", ai)
		sel.From = append(sel.From, TableRef{Table: atom.Pred, Alias: alias})
		for i, t := range atom.Args {
			colName := sch.Attr(i).Name
			ref := ColRef{Qualifier: alias, Column: colName}
			if t.IsConst() {
				if err := sqlConst(t.Const); err != nil {
					return nil, nil, err
				}
				sel.Where = append(sel.Where, SQLCond{Left: ref, Op: relation.OpEq, RightVal: t.Const})
				continue
			}
			if prev, ok := varSite[t.Var]; ok {
				sel.Where = append(sel.Where, SQLCond{
					Left:       ColRef{Qualifier: prev.alias, Column: prev.col},
					Op:         relation.OpEq,
					RightIsCol: true,
					RightCol:   ref,
				})
			} else {
				varSite[t.Var] = site{alias: alias, col: colName}
			}
		}
	}

	for _, c := range q.Cmps {
		l, r := c.Args[0], c.Args[1]
		op := c.CmpOp()
		switch {
		case l.IsVar() && r.IsVar():
			ls, rs := varSite[l.Var], varSite[r.Var]
			sel.Where = append(sel.Where, SQLCond{
				Left:       ColRef{Qualifier: ls.alias, Column: ls.col},
				Op:         op,
				RightIsCol: true,
				RightCol:   ColRef{Qualifier: rs.alias, Column: rs.col},
			})
		case l.IsVar():
			if err := sqlConst(r.Const); err != nil {
				return nil, nil, err
			}
			ls := varSite[l.Var]
			sel.Where = append(sel.Where, SQLCond{
				Left: ColRef{Qualifier: ls.alias, Column: ls.col}, Op: op, RightVal: r.Const,
			})
		case r.IsVar():
			if err := sqlConst(l.Const); err != nil {
				return nil, nil, err
			}
			rs := varSite[r.Var]
			sel.Where = append(sel.Where, SQLCond{
				Left: ColRef{Qualifier: rs.alias, Column: rs.col}, Op: op.Flip(), RightVal: l.Const,
			})
		default:
			if !op.Eval(l.Const, r.Const) {
				// Statically false: emit an impossible condition so the DBMS
				// returns an empty result (the subset has no FALSE literal).
				first := sel.From[0].Alias
				sch, _ := src.RelationSchema(q.Rels[0].Pred, len(q.Rels[0].Args))
				col := sch.Attr(0).Name
				sel.Where = append(sel.Where,
					SQLCond{Left: ColRef{Qualifier: first, Column: col}, Op: relation.OpNe,
						RightIsCol: true, RightCol: ColRef{Qualifier: first, Column: col}})
			}
		}
	}

	tr := &Translation{
		HeadIdx: make([]int, len(q.Head.Args)),
		Consts:  make([]relation.Value, len(q.Head.Args)),
	}
	// Select each distinct head variable once, in first-appearance order.
	selIdx := make(map[string]int)
	for i, t := range q.Head.Args {
		if t.IsConst() {
			tr.HeadIdx[i] = -1
			tr.Consts[i] = t.Const
			continue
		}
		if idx, ok := selIdx[t.Var]; ok {
			tr.HeadIdx[i] = idx
			continue
		}
		s, ok := varSite[t.Var]
		if !ok {
			return nil, nil, fmt.Errorf("remotedb: head variable %s not bound in body", t.Var)
		}
		idx := len(sel.Items)
		sel.Items = append(sel.Items, SelectItem{Col: ColRef{Qualifier: s.alias, Column: s.col}})
		selIdx[t.Var] = idx
		tr.HeadIdx[i] = idx
	}
	if len(sel.Items) == 0 {
		// All head positions are constants: select an arbitrary column so the
		// SQL is well-formed; reassembly ignores it (row multiplicity is what
		// matters).
		s, _ := src.RelationSchema(q.Rels[0].Pred, len(q.Rels[0].Args))
		sel.Items = append(sel.Items, SelectItem{Col: ColRef{Qualifier: sel.From[0].Alias, Column: s.Attr(0).Name}})
	}
	tr.identity = len(sel.Items) == len(tr.HeadIdx)
	for i, idx := range tr.HeadIdx {
		tr.identity = tr.identity && idx == i
	}
	return sel, tr, nil
}

// sqlConst refuses a constant the SQL subset cannot spell: a NaN or infinite
// float has no literal, and rendered bare it would read as a column name.
func sqlConst(v relation.Value) error {
	if f := v.AsFloat(); v.Kind() == relation.KindFloat && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return fmt.Errorf("remotedb: the float constant %v has no SQL literal", v)
	}
	return nil
}

// ReassembleTuple rebuilds one CAQL head row from one SQL result row using
// the translation's head recipe, so streamed results are reassembled lazily
// as frames arrive instead of after full materialization. A head that is its
// select list is the row itself, which the caller may keep as TupleStream
// lets it keep any row; any other head is a new tuple.
func (tr *Translation) ReassembleTuple(row relation.Tuple) (relation.Tuple, error) {
	if tr.identity && len(row) == len(tr.HeadIdx) {
		return row, nil
	}
	t := make(relation.Tuple, len(tr.HeadIdx))
	for i, idx := range tr.HeadIdx {
		if idx < 0 {
			t[i] = tr.Consts[i]
		} else {
			if idx >= len(row) {
				return nil, fmt.Errorf("remotedb: SQL row too short for reassembly")
			}
			t[i] = row[idx]
		}
	}
	return t, nil
}

// A ShapeTemplate is the translation shared by every CAQL query of one shape:
// the SQL text with its WHERE literals cut out, and the head recipe. Queries
// of one shape differ only in the values of their constants, and each
// constant is one WHERE literal, so Translate splices a query's constants
// into the cuts instead of translating it again. The text is cut by the walk
// SelectStmt.String renders with, so a spliced SQL is byte-identical to
// TranslateCAQL's for the same query and schemas.
//
// A shape (CAQLShape) is the head's variable names, and for each relational
// atom its predicate and arguments, and for each comparison its operator and
// arguments: an argument is a variable's name or a constant's kind. The head
// predicate is not part of it. A query with a head constant, or with a
// comparison of two constants, has no shape: the constant's value or the
// comparison's truth changes the SQL.
//
// A template holds for the base schemas it was built against; the caller
// keeps those and drops the template when one of them changes.
type ShapeTemplate struct {
	shape *caql.Query // a copy of the query it was built from
	text  string      // the SQL with its WHERE literals cut out
	cuts  []int       // where in text each literal goes, in order
	head  Translation // the head recipe, shared by every translation; no SQL
}

// CAQLShape returns the 64-bit key of q's shape, or false when q has none.
// Two queries of different shapes can share a key; ShapeTemplate.Fits is the
// exact test.
func CAQLShape(q *caql.Query) (uint64, bool) {
	h := shapeHash(fnvOffset64)
	h.int(len(q.Head.Args))
	for _, t := range q.Head.Args {
		if t.IsConst() {
			return 0, false
		}
		h.str(t.Var)
	}
	h.int(len(q.Rels))
	for _, a := range q.Rels {
		h.str(a.Pred)
		h.terms(a.Args)
	}
	h.int(len(q.Cmps))
	for _, c := range q.Cmps {
		if c.Args[0].IsConst() && c.Args[1].IsConst() {
			return 0, false
		}
		h.str(c.Pred)
		h.terms(c.Args)
	}
	return uint64(h), true
}

func (h *shapeHash) terms(ts []logic.Term) {
	h.int(len(ts))
	for _, t := range ts {
		h.flag(t.IsVar())
		if t.IsVar() {
			h.str(t.Var)
		} else {
			h.int(int(t.Const.Kind()))
		}
	}
}

// NewShapeTemplate translates q, which must have a shape (CAQLShape), and
// cuts the SQL text at its literals. It fails as TranslateCAQL fails.
func NewShapeTemplate(q *caql.Query, src caql.SchemaSource) (*ShapeTemplate, error) {
	sel, tr, err := compileCAQL(q, src)
	if err != nil {
		return nil, err
	}
	t := &ShapeTemplate{shape: q.Clone(), head: *tr}
	text := sel.appendSQL(nil, func(dst []byte, _ relation.Value) []byte {
		t.cuts = append(t.cuts, len(dst))
		return dst
	})
	t.text = string(text)
	return t, nil
}

// Fits reports whether q has the template's shape.
func (t *ShapeTemplate) Fits(q *caql.Query) bool {
	a := t.shape
	return sameTerms(a.Head.Args, q.Head.Args) && sameAtoms(a.Rels, q.Rels) && sameAtoms(a.Cmps, q.Cmps)
}

// sameAtoms and sameTerms compare what CAQLShape hashes.
func sameAtoms(a, b []logic.Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x.Pred != b[i].Pred || !sameTerms(x.Args, b[i].Args) {
			return false
		}
	}
	return true
}

func sameTerms(a, b []logic.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i, s := range a {
		t := b[i]
		if s.IsVar() != t.IsVar() || s.Var != t.Var || s.IsConst() && s.Const.Kind() != t.Const.Kind() {
			return false
		}
	}
	return true
}

// Translate splices q's constants into the template: q's translation, as
// TranslateCAQL gives it against the template's base schemas, in two
// allocations (the SQL text, written into one builder grown to fit, and the
// Translation, which shares the template's head recipe). q must fit the template. A NaN or infinite constant fails as
// it fails TranslateCAQL.
func (t *ShapeTemplate) Translate(q *caql.Query) (*Translation, error) {
	var buf [8]relation.Value
	lits := appendLiterals(buf[:0], q)
	size := len(t.text)
	for _, v := range lits {
		if err := sqlConst(v); err != nil {
			return nil, err
		}
		size += sqlLiteralBound(v)
	}
	var sql strings.Builder
	sql.Grow(size)
	var lit [64]byte // a longer literal costs one more allocation
	at := 0
	for i, v := range lits {
		sql.WriteString(t.text[at:t.cuts[i]])
		sql.Write(appendSQLLiteral(lit[:0], v))
		at = t.cuts[i]
	}
	sql.WriteString(t.text[at:])
	tr := t.head
	tr.SQL = sql.String()
	return &tr, nil
}

// appendLiterals appends q's constants in the order compileCAQL makes them
// WHERE literals: the relational atoms' constants, then each comparison's.
func appendLiterals(dst []relation.Value, q *caql.Query) []relation.Value {
	for _, a := range q.Rels {
		for _, t := range a.Args {
			if t.IsConst() {
				dst = append(dst, t.Const)
			}
		}
	}
	for _, c := range q.Cmps {
		for _, t := range c.Args {
			if t.IsConst() {
				dst = append(dst, t.Const)
			}
		}
	}
	return dst
}

// sqlLiteralBound is at least the length of v's SQL literal.
func sqlLiteralBound(v relation.Value) int {
	if v.Kind() == relation.KindString {
		s := v.AsString()
		return len(s) + 2 + strings.Count(s, "'")
	}
	return 32
}
