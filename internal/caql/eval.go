package caql

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/relation"
)

// RelationSource provides base relation extensions for evaluation. It is
// implemented by the remote DBMS engine, by the cache (over cached
// extensions), and by test fixtures.
type RelationSource interface {
	// RelationExtension returns the extension of the named base relation.
	RelationExtension(name string, arity int) (*relation.Relation, error)
}

// Eval evaluates the conjunctive query eagerly against src, returning the
// result extension. It is the semantic reference for every other evaluation
// path in the system (lazy pipelines, derivations from cache elements,
// remote SQL plans are all differentially tested against it).
func Eval(q *Query, src RelationSource) (*relation.Relation, error) {
	it, schema, err := EvalLazy(q, src)
	if err != nil {
		return nil, err
	}
	return relation.Drain(q.Name(), schema, it), nil
}

// EvalLazy builds a lazy iterator pipeline for the query: scans and hash
// joins over the base extensions with selections pushed down, producing head
// tuples on demand. The boolean laziness is real: consuming k tuples of the
// output performs only the work needed for those k tuples on the probe side
// of each join.
func EvalLazy(q *Query, src RelationSource) (relation.Iterator, *relation.Schema, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	// colOf maps a variable to its column in the running wide tuple.
	colOf := make(map[string]int)
	varKind := make(map[string]relation.Kind)
	width := 0
	var pipe relation.Iterator

	for _, atom := range q.Rels {
		base, err := src.RelationExtension(atom.Pred, len(atom.Args))
		if err != nil {
			return nil, nil, err
		}
		if base.Schema().Arity() != len(atom.Args) {
			return nil, nil, fmt.Errorf("caql: atom %s arity %d does not match relation arity %d",
				atom, len(atom.Args), base.Schema().Arity())
		}
		// Push down constant and repeated-variable selections on this atom.
		var localConds []relation.Cond
		localSeen := make(map[string]int)
		var joinConds []relation.JoinCond
		var newVars []string
		for i, t := range atom.Args {
			switch {
			case t.IsConst():
				localConds = append(localConds, relation.ColConst(i, relation.OpEq, t.Const))
			case localSeen[t.Var] != 0:
				localConds = append(localConds, relation.ColCol(localSeen[t.Var]-1, relation.OpEq, i))
			default:
				localSeen[t.Var] = i + 1
				if prev, ok := colOf[t.Var]; ok {
					joinConds = append(joinConds, relation.JoinCond{Left: prev, Right: i})
				} else {
					newVars = append(newVars, t.Var)
					if _, ok := varKind[t.Var]; !ok {
						varKind[t.Var] = base.Schema().Attr(i).Kind
					}
				}
			}
		}
		scan := relation.Select(base.Iter(), localConds)
		if pipe == nil {
			pipe = scan
			for v, i := range localSeen {
				colOf[v] = i - 1
			}
			width = len(atom.Args)
			continue
		}
		pipe = relation.HashJoin(pipe, scan, joinConds)
		for v, i := range localSeen {
			if _, ok := colOf[v]; !ok {
				colOf[v] = width + i - 1
			}
		}
		width += len(atom.Args)
		_ = newVars
	}

	// Apply comparison atoms over the wide tuple.
	var cmpConds []relation.Cond
	for _, c := range q.Cmps {
		l, r := c.Args[0], c.Args[1]
		op := c.CmpOp()
		switch {
		case l.IsVar() && r.IsVar():
			cmpConds = append(cmpConds, relation.ColCol(colOf[l.Var], op, colOf[r.Var]))
		case l.IsVar():
			cmpConds = append(cmpConds, relation.ColConst(colOf[l.Var], op, r.Const))
		case r.IsVar():
			cmpConds = append(cmpConds, relation.ColConst(colOf[r.Var], op.Flip(), l.Const))
		default:
			if !op.Eval(l.Const, r.Const) {
				pipe = relation.Empty()
			}
		}
	}
	pipe = relation.Select(pipe, cmpConds)

	// Project onto the head.
	headCols := make([]int, len(q.Head.Args))
	headConst := make([]relation.Value, len(q.Head.Args))
	attrs := make([]relation.Attr, len(q.Head.Args))
	used := make(map[string]bool)
	for i, t := range q.Head.Args {
		var name string
		if t.IsVar() {
			headCols[i] = colOf[t.Var]
			name = t.Var
			attrs[i] = relation.Attr{Name: t.Var, Kind: varKind[t.Var]}
		} else {
			headCols[i] = -1
			headConst[i] = t.Const
			name = ConstColumnName(i)
			attrs[i] = relation.Attr{Name: name, Kind: t.Const.Kind()}
		}
		for used[attrs[i].Name] {
			attrs[i].Name += "_"
		}
		used[attrs[i].Name] = true
	}
	out := relation.IteratorFunc(func() (relation.Tuple, bool) {
		t, ok := pipe.Next()
		if !ok {
			return nil, false
		}
		row := make(relation.Tuple, len(headCols))
		for i, c := range headCols {
			if c < 0 {
				row[i] = headConst[i]
			} else {
				row[i] = t[c]
			}
		}
		return row, true
	})
	return out, relation.NewSchema(attrs...), nil
}

// MapSource is a RelationSource over a map of extensions; primarily a test
// and example fixture.
type MapSource map[string]*relation.Relation

// RelationExtension implements RelationSource.
func (m MapSource) RelationExtension(name string, arity int) (*relation.Relation, error) {
	r, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("caql: unknown relation %s/%d", name, arity)
	}
	if r.Schema().Arity() != arity {
		return nil, fmt.Errorf("caql: relation %s has arity %d, query uses %d", name, r.Schema().Arity(), arity)
	}
	return r, nil
}

// RelationSchema implements SchemaSource.
func (m MapSource) RelationSchema(name string, arity int) (*relation.Schema, error) {
	r, err := m.RelationExtension(name, arity)
	if err != nil {
		return nil, err
	}
	return r.Schema(), nil
}

// Generalize returns a copy of q with the given head argument positions
// turned into fresh variables (and the corresponding body occurrences left
// intact — the body shares the head's variables, so generalization replaces
// constants that appear in both). Positions holding variables already are
// ignored. This implements the paper's query generalization: "constants in
// the query [are] replaced with a more general form".
func Generalize(q *Query, positions []int) *Query {
	out := q.Clone()
	fresh := 0
	for _, pos := range positions {
		if pos < 0 || pos >= len(out.Head.Args) {
			continue
		}
		t := out.Head.Args[pos]
		if t.IsVar() {
			continue
		}
		c := t.Const
		name := fmt.Sprintf("G%d", fresh)
		for out.VarSet()[name] {
			fresh++
			name = fmt.Sprintf("G%d", fresh)
		}
		fresh++
		// Replace this constant everywhere it occurs in head and body. The
		// body occurrences must be replaced for the generalization to widen
		// the selection.
		v := logic.V(name)
		out.Head.Args[pos] = v
		for ai := range out.Rels {
			for ti, at := range out.Rels[ai].Args {
				if at.IsConst() && at.Const.Equal(c) {
					out.Rels[ai].Args[ti] = v
				}
			}
		}
		for ci := range out.Cmps {
			for ti, at := range out.Cmps[ci].Args {
				if at.IsConst() && at.Const.Equal(c) {
					out.Cmps[ci].Args[ti] = v
				}
			}
		}
	}
	return out
}
