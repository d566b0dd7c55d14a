package cache

import (
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/subsume"
)

// The shape memo. A session plans a query whose answer one element gives
// (exact or subsumed) once per shape: the predicates, the variable pattern,
// and each constant's kind and position, in the head, the atoms and the
// comparisons, with the constants as slots. A later query of that shape has
// its constants bound into the memoised derivation and is served from the
// same element, without canonicalizing, preparing, probing or matching — as
// the server (plancache.go), the RDI and the IE already reuse their work
// per shape. Everything after the decision runs as it does for a fresh plan:
// Touch, the index lookup or its noted selection, the answer-kind counters,
// prefetch. So a memo hit counts and charges what the fresh plan would.
//
// An entry is the decision a fresh plan made, and stands for the shape's
// other constants only where the decision cannot depend on them:
//
//   - A constant-free query is its shape: any query of the shape is the same
//     query up to variable names, so either verdict is kept.
//   - A query with constants keeps a verdict only from an element with no
//     constant in its atoms, and only while every element filed under the
//     query's constant-free index keys is blind: no constant in its head, no
//     comparison, no variable twice in its atoms. Matching such an element
//     decides nothing by a constant's value, and the residual selections it
//     needs read the constants from their slots. (Such a verdict is never
//     exact: an element whose canonical form is the query's has its
//     constants, in its atoms or, filed under its first atom's
//     constant-free key, in its head or comparisons.)
//   - Elements that pin constants are filed under (relation, position,
//     constant), so a query of the shape can meet one the entry's plan did
//     not see only through its own constants' keys: a hit needs all of them
//     empty (Manager.mayFile).
//
// A hit needs, besides, the Manager's generation and the observed epoch the
// entry was planned under, so nothing was inserted, published, evicted,
// removed or indexed, and no view went stale, since; and the element still
// not stale, as a client folds a table's new version in before it raises the
// epoch that came with it. (An element visible to a session stays visible:
// publishing only widens.) Anything else is planned fresh, and the fresh
// plan replaces the entry. FuzzShapeMemo holds every hit to the fresh plan of
// the same query.

// memoSize bounds a session's shape memo; a shape stored past it takes the
// place of the one stored longest ago.
const memoSize = 16

// memoConds bounds the residual selections of a memoised derivation.
const memoConds = 8

// memoEntry is one shape's decision, in storage the session keeps: its key,
// the state it was planned in, the verdict, the derivation with its
// constants' slots, and the schema it was last served under.
type memoEntry struct {
	key    []byte
	at     memoStamp
	kind   answerKind
	e      *Element
	blk    subsume.DerivationBlock
	d      *subsume.Derivation // in blk
	slots  [memoConds]constSlot
	schema *relation.Schema
}

// memoStamp is the state a plan is made in: the Manager's generation and the
// observed epoch, read before it starts.
type memoStamp struct{ gen, epoch uint64 }

// constSlot is where a residual selection reads its constant: argument arg
// of atom atom, counting the relational atoms and then the comparisons; atom
// is -1 for a selection that compares two columns.
type constSlot struct{ atom, arg int8 }

// stamp reads the state a plan starting now is made in.
func (s *Session) stamp() memoStamp {
	return memoStamp{gen: s.cms.mgr.generation(), epoch: s.cms.rdi.ObservedEpoch()}
}

// recall returns the memo's entry for q's shape, with q's constants bound
// into its derivation, when it may serve q in state at; otherwise nil. It
// leaves q's shape key in s.shape for remember, empty when q has none.
func (s *Session) recall(q *caql.Query, at memoStamp) *memoEntry {
	key, ok := appendShapeKey(s.shape[:0], q)
	if s.shape = key; !ok {
		s.shape = key[:0]
		return nil
	}
	ent := s.lookup(key)
	if ent == nil || ent.at != at {
		return nil
	}
	for _, a := range q.Rels {
		for p, t := range a.Args {
			if t.IsConst() && s.cms.mgr.mayFile(sigKey(a, p)) {
				return nil
			}
		}
	}
	if (staleCheck{c: s.cms, remoteEpoch: at.epoch}).stale(ent.e) {
		return nil
	}
	ent.bind(q)
	return ent
}

// lookup is the entry whose key is key, or nil.
func (s *Session) lookup(key []byte) *memoEntry {
	for _, ent := range s.memo {
		if string(ent.key) == string(key) {
			return ent
		}
	}
	return nil
}

// bind writes q's constants into the entry's derivation.
func (ent *memoEntry) bind(q *caql.Query) {
	d := ent.d
	for i := range d.Candidate.Conds {
		if sl := ent.slots[i]; sl.atom >= 0 {
			d.Candidate.Conds[i].Const = slotAtom(q, sl).Args[sl.arg].Const
		}
	}
	for i, t := range q.Head.Args {
		if t.IsConst() {
			d.Consts[i] = t.Const
		}
	}
	d.Empty = false
	for _, c := range q.Cmps {
		if c.Args[0].IsConst() && c.Args[1].IsConst() && !c.CmpOp().Eval(c.Args[0].Const, c.Args[1].Const) {
			d.Empty = true
		}
	}
}

// slotAtom is the atom sl counts to in q.
func slotAtom(q *caql.Query, sl constSlot) logic.Atom {
	if int(sl.atom) < len(q.Rels) {
		return q.Rels[sl.atom]
	}
	return q.Cmps[int(sl.atom)-len(q.Rels)]
}

// remember keeps v, a fresh plan of q made in state at and served under
// schema, for q's shape (s.shape), when it may stand for the shape's other
// constants (see the memo's rules above). Storing into a kept entry
// allocates nothing.
func (s *Session) remember(q *caql.Query, at memoStamp, v *verdict, schema *relation.Schema) {
	if len(s.shape) == 0 || v.kind != exact && v.kind != subsumed || len(v.d.Candidate.Conds) > memoConds {
		return
	}
	if hasConstant(q) && (!relsConstantFree(v.e.Def) || !s.cms.mgr.blindOver(q)) {
		return
	}
	var slots [memoConds]constSlot
	for i, cond := range v.d.Candidate.Conds {
		slots[i] = constSlot{atom: -1}
		if cond.Right < 0 {
			var ok bool
			if slots[i], ok = findSlot(q, cond.Const); !ok {
				return
			}
		}
	}
	ent := s.lookup(s.shape)
	if ent == nil {
		ent = s.memoEntryFor()
		ent.key = append(ent.key[:0], s.shape...)
	}
	ent.at, ent.kind, ent.e, ent.slots, ent.schema = at, v.kind, v.e, slots, schema
	ent.d = v.d.CopyInto(&ent.blk)
}

// schemaOf is q's output schema answered from e through d: the schema its
// shape's entry was last served under, when that was from e and fits, so a
// shape asked again is served the schema it was served before, whether it is
// planned fresh or recalled; otherwise e.servedSchema's.
func (s *Session) schemaOf(q *caql.Query, e *Element, d *subsume.Derivation) *relation.Schema {
	if ent := s.lookup(s.shape); ent != nil && ent.e == e && fitsSchema(ent.schema, q, d, e) {
		return ent.schema
	}
	return e.servedSchema(q, d)
}

// memoEntryFor is storage for a new entry: the memo's next unused one, or
// with the memo full the one stored longest ago.
func (s *Session) memoEntryFor() *memoEntry {
	if n := len(s.memo); n < memoSize {
		if n < cap(s.memo) {
			s.memo = s.memo[:n+1]
		} else {
			s.memo = append(s.memo, nil)
		}
		if s.memo[n] == nil {
			s.memo[n] = new(memoEntry)
		}
		return s.memo[n]
	}
	ent := s.memo[s.memoNext]
	s.memoNext = (s.memoNext + 1) % memoSize
	return ent
}

// forgetMemo empties the memo, keeping its entries' storage and nothing
// they pointed to.
func (sc *scratch) forgetMemo() {
	for _, ent := range sc.memo {
		ent.e, ent.d, ent.schema = nil, nil, nil
		ent.blk = subsume.DerivationBlock{}
	}
	sc.memo, sc.memoNext = sc.memo[:0], 0
}

// findSlot is where c is q's constant: the one argument of a relational atom
// or a comparison that holds a constant equal to it. ok is false when none
// does or several do, which a template cannot tell apart.
func findSlot(q *caql.Query, c relation.Value) (sl constSlot, ok bool) {
	n := 0
	for i := range len(q.Rels) + len(q.Cmps) {
		for j, t := range slotAtom(q, constSlot{atom: int8(i)}).Args {
			if t.IsConst() && t.Const.Equal(c) {
				sl, n = constSlot{atom: int8(i), arg: int8(j)}, n+1
			}
		}
	}
	return sl, n == 1
}

// hasConstant reports whether q has a constant anywhere.
func hasConstant(q *caql.Query) bool {
	for _, t := range q.Head.Args {
		if t.IsConst() {
			return true
		}
	}
	for _, c := range q.Cmps {
		if c.Args[0].IsConst() || c.Args[1].IsConst() {
			return true
		}
	}
	return !relsConstantFree(q)
}

// relsConstantFree reports whether no relational atom of q has a constant.
func relsConstantFree(q *caql.Query) bool {
	for _, a := range q.Rels {
		for _, t := range a.Args {
			if t.IsConst() {
				return false
			}
		}
	}
	return true
}

// blind reports whether matching def decides nothing by a query constant's
// value: def has no constant, no comparison, and no variable twice in its
// relational atoms.
func blind(def *caql.Query) bool {
	if len(def.Cmps) > 0 || hasConstant(def) {
		return false
	}
	var names [16]string
	vars := names[:0]
	for _, a := range def.Rels {
		for _, t := range a.Args {
			for _, v := range vars {
				if v == t.Var {
					return false
				}
			}
			vars = append(vars, t.Var)
		}
	}
	return true
}

// blindOver reports whether every element filed under one of q's
// constant-free index keys is blind.
func (m *Manager) blindOver(q *caql.Query) bool {
	for _, a := range q.Rels {
		k := sigKey(a, -1)
		s := m.keyShard(k)
		s.mu.RLock()
		ok := true
		for _, e := range s.bySig[k] {
			if !blind(e.Def) {
				ok = false
				break
			}
		}
		s.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
}

// appendShapeKey appends q's shape key to dst: the head's, atoms' and
// comparisons' counts, then each predicate by length and name (the head's
// excepted, as the canonical form ignores it) with its arity, and each
// argument as a variable numbered by first occurrence or a constant's kind.
// Two queries share a key exactly when they differ only in variable names,
// head predicate and constant values of the same kinds. ok is false for a
// query too large to key, which is planned fresh every time.
func appendShapeKey(dst []byte, q *caql.Query) (key []byte, ok bool) {
	if len(q.Head.Args) > 255 || len(q.Rels)+len(q.Cmps) > 127 {
		return dst, false
	}
	var names [16]string
	vars := names[:0]
	dst = append(dst, byte(len(q.Head.Args)), byte(len(q.Rels)), byte(len(q.Cmps)))
	if dst, vars, ok = appendShapeArgs(dst, vars, q.Head.Args); !ok {
		return dst, false
	}
	for _, body := range [2][]logic.Atom{q.Rels, q.Cmps} {
		for _, a := range body {
			if len(a.Pred) > 255 || len(a.Args) > 127 {
				return dst, false
			}
			dst = append(append(dst, byte(len(a.Pred))), a.Pred...)
			dst = append(dst, byte(len(a.Args)))
			if dst, vars, ok = appendShapeArgs(dst, vars, a.Args); !ok {
				return dst, false
			}
		}
	}
	return dst, true
}

// appendShapeArgs appends the shape of each argument: 'v' and the
// variable's number in vars, which it extends with the ones met first, or
// 'c' and the constant's kind.
func appendShapeArgs(dst []byte, vars []string, args []logic.Term) ([]byte, []string, bool) {
	for _, t := range args {
		if t.IsConst() {
			dst = append(dst, 'c', byte(t.Const.Kind()))
			continue
		}
		n := len(vars)
		for i, v := range vars {
			if v == t.Var {
				n = i
				break
			}
		}
		if n == len(vars) {
			if n == 255 {
				return dst, vars, false
			}
			vars = append(vars, t.Var)
		}
		dst = append(dst, 'v', byte(n))
	}
	return dst, vars, true
}
