package remotedb

import (
	"fmt"
	"math"

	"repro/internal/caql"
	"repro/internal/relation"
)

// Translation is the output of translating a CAQL conjunctive query into the
// remote DBMS's DML, plus the reassembly recipe for rebuilding the CAQL head
// row from a SQL result row (SQL's select list cannot carry constants or
// duplicate a column, so the translator projects each distinct head variable
// once and the reassembly step re-expands).
type Translation struct {
	// Stmt is the translated SELECT.
	Stmt *SelectStmt
	// SQL is Stmt rendered as text (what actually crosses the wire).
	SQL string
	// HeadIdx maps each CAQL head position to an index in the SQL select
	// list, or -1 when the position is a constant.
	HeadIdx []int
	// Consts holds the constant for each head position with HeadIdx -1.
	Consts []relation.Value
}

// TranslateCAQL compiles a CAQL conjunctive query into the SQL subset. Every
// relational atom becomes an aliased table reference; constants in atoms
// become equality conditions; shared variables become join conditions;
// comparison atoms become WHERE conjuncts. The caller supplies base relation
// schemas through src.
func TranslateCAQL(q *caql.Query, src caql.SchemaSource) (*Translation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
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
			return nil, err
		}
		alias := fmt.Sprintf("t%d", ai)
		sel.From = append(sel.From, TableRef{Table: atom.Pred, Alias: alias})
		for i, t := range atom.Args {
			colName := sch.Attr(i).Name
			ref := ColRef{Qualifier: alias, Column: colName}
			if t.IsConst() {
				if err := sqlConst(t.Const); err != nil {
					return nil, err
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
				return nil, err
			}
			ls := varSite[l.Var]
			sel.Where = append(sel.Where, SQLCond{
				Left: ColRef{Qualifier: ls.alias, Column: ls.col}, Op: op, RightVal: r.Const,
			})
		case r.IsVar():
			if err := sqlConst(l.Const); err != nil {
				return nil, err
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
		Stmt:    sel,
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
			return nil, fmt.Errorf("remotedb: head variable %s not bound in body", t.Var)
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
	tr.SQL = sel.String()
	return tr, nil
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
// as frames arrive instead of after full materialization.
func (tr *Translation) ReassembleTuple(row relation.Tuple) (relation.Tuple, error) {
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
