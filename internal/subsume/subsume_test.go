package subsume

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

func at(name string, kind relation.Kind) relation.Attr {
	return relation.Attr{Name: name, Kind: kind}
}

// apply drains d's answer over ext(E) into a relation of the given schema:
// the derivation as ApplyLazy streams it.
func apply(d *Derivation, name string, schema *relation.Schema, ext *relation.Relation) (*relation.Relation, error) {
	if schema.Arity() != len(d.OutCols) {
		return nil, fmt.Errorf("subsume: schema arity %d != derivation arity %d", schema.Arity(), len(d.OutCols))
	}
	return relation.Drain(name, schema, d.ApplyLazy(ext.Iter())), nil
}

// paperSource builds extensions for b21, b22, b23 and the paper's b1/b2/b3.
func paperSource(rng *rand.Rand, names map[string]int) caql.MapSource {
	src := caql.MapSource{}
	for name, arity := range names {
		attrs := make([]relation.Attr, arity)
		for i := range attrs {
			attrs[i] = at(string(rune('a'+i)), relation.KindInt)
		}
		rel := relation.New(name, relation.NewSchema(attrs...))
		for i := 0; i < 8+rng.Intn(10); i++ {
			tu := make(relation.Tuple, arity)
			for j := range tu {
				tu[j] = relation.Int(int64(rng.Intn(5)))
			}
			rel.MustAppend(tu)
		}
		src[name] = rel
	}
	return src
}

func headVars(q *caql.Query) map[string]bool {
	out := make(map[string]bool)
	for _, t := range q.Head.Args {
		if t.IsVar() {
			out[t.Var] = true
		}
	}
	return out
}

// Section 5.3.2 step 1 example: Q_c1 = b21(X,2) vs E1, E2, E3.
func TestPaperStep1Example(t *testing.T) {
	q := caql.MustParse("q(X) :- b21(X, 2)")
	e1 := caql.MustParse("e1(X, Y, Z) :- b21(X, Y) & b22(Y, Z)")
	e2 := caql.MustParse("e2(Y) :- b21(3, Y)")
	e3 := caql.MustParse("e3(X, Z) :- b21(X, 2) & b23(2, Z)")

	// E1 has atoms the query lacks (b22): usable only for decomposition, and
	// its b21 atom matches. The element uses all its atoms, so Match against
	// the single-atom query fails (element more restricted).
	if cands := Match(e1, q, headVars(q)); len(cands) != 0 {
		t.Errorf("E1 should be rejected for the single-atom query (more restricted), got %d candidates", len(cands))
	}
	// E2: constant 3 where query has variable X — rejected.
	if cands := Match(e2, q, headVars(q)); len(cands) != 0 {
		t.Errorf("E2 should be rejected, got %d", len(cands))
	}
	// E3: likewise multi-atom; but against the two-atom query Q1b it works.
	q1b := caql.MustParse("q(X) :- b23(2, 3) & b21(X, 2)")
	cands := Match(e3, q1b, headVars(q1b))
	if len(cands) == 0 {
		t.Fatal("E3 should match Q1b")
	}
	if len(cands[0].Cover) != 2 {
		t.Errorf("E3 should cover both atoms of Q1b, covered %v", cands[0].Cover)
	}

	// Q1a = b21(X,2) & b22(2,Y): E3 must NOT be considered (b23 missing).
	q1a := caql.MustParse("q(X, Y) :- b21(X, 2) & b22(2, Y)")
	if cands := Match(e3, q1a, headVars(q1a)); len(cands) != 0 {
		t.Errorf("E3 should not match Q1a, got %d", len(cands))
	}
	// Q1c = b21(2,Y) & b23(Y,Z): E3's b21 has var where query has const —
	// fine (2 matches X3) — but E3's b23(2,Z) has const 2 where query has
	// var Y: rejected.
	q1c := caql.MustParse("q(Y, Z) :- b21(2, Y) & b23(Y, Z)")
	if cands := Match(e3, q1c, headVars(q1c)); len(cands) != 0 {
		t.Errorf("E3 should not match Q1c, got %d", len(cands))
	}
}

// Section 5.3.2 continuation: cache elements E11, E12, E13 and query
// d2(X,c6) = b2(X,Z) & b3(Z,c2,c6).
func TestPaperElementExample(t *testing.T) {
	q := caql.MustParse(`d2(X) :- b2(X, Z) & b3(Z, "c2", "c6")`)
	e11 := caql.MustParse(`e11(X, Y) :- b2(X, "c1") & b3(Y, "c2", "c6")`)
	e12 := caql.MustParse(`e12(X, Y) :- b3(X, "c2", Y)`)
	e13 := caql.MustParse(`e13(X, Y, Z) :- b3(X, Y, Z)`)

	needed := map[string]bool{"X": true, "Z": true}
	// E11: its b2 atom has constant "c1" where the query has variable Z —
	// more restricted; no candidate may use it. (Its b3 atom alone cannot be
	// used either because all element atoms must be used.)
	if cands := Match(e11, q, needed); len(cands) != 0 {
		t.Errorf("E11 should be rejected, got %d candidates", len(cands))
	}
	// E12 covers the b3 atom.
	cands := Match(e12, q, needed)
	if len(cands) != 1 || len(cands[0].Cover) != 1 || cands[0].Cover[0] != 1 {
		t.Fatalf("E12 should cover exactly the b3 atom: %+v", cands)
	}
	// Residual selection: second head col (Y of e12) = "c6".
	if len(cands[0].Conds) != 1 {
		t.Fatalf("E12 candidate conds = %v", cands[0].Conds)
	}
	// E13 covers the b3 atom too, with selections on cols 1 and 2.
	cands13 := Match(e13, q, needed)
	if len(cands13) != 1 || len(cands13[0].Conds) != 2 {
		t.Fatalf("E13 candidate wrong: %+v", cands13)
	}
}

func TestFullDerivationExactAndGeneralized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := paperSource(rng, map[string]int{"b2": 2, "b3": 3})
	// Element: generalized query; Query: instance with constant.
	e := caql.MustParse("e(X, Z, Y) :- b2(X, Z) & b3(Z, 2, Y)")
	q := caql.MustParse("d2(X, 3) :- b2(X, Z) & b3(Z, 2, 3)")

	d, ok := DeriveFull(e, q)
	if !ok {
		t.Fatal("generalized element should derive the instance")
	}
	ext, err := caql.Eval(e, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := caql.Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := apply(d, "d2", want.Schema(), ext)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsBag(want) {
		t.Fatalf("derivation wrong:\ngot %v\nwant %v", got, want)
	}
}

// TestMaterializeMatchesApplyInFewAllocations: Materialize, the eager hit
// path, answers exactly what Apply does — head constants, a residual
// constant selection and a range condition included — in one allocation, the
// block of answer values, whose values are copies the consumer may overwrite
// without touching the source.
func TestMaterializeMatchesApplyInFewAllocations(t *testing.T) {
	e := caql.MustParse("e(A, B, C) :- b3(A, B, C)")
	ext := relation.New("e", relation.NewSchema(at("A", relation.KindInt), at("B", relation.KindInt), at("C", relation.KindInt)))
	for i := 0; i < 3000; i++ {
		ext.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 3)), relation.Int(int64(i % 10))})
	}
	for _, tc := range []struct {
		q     string
		conds int // residual conditions the derivation must apply
	}{
		{"q(X, 2, Y) :- b3(X, 2, Y) & Y < 5", 2},
		{"q(Y, X) :- b3(X, Z, Y)", 0},
	} {
		q := caql.MustParse(tc.q)
		d, ok := DeriveFull(e, q)
		if !ok {
			t.Fatalf("%s: not derivable", tc.q)
		}
		if len(d.Candidate.Conds) != tc.conds {
			t.Fatalf("%s: %d residual conditions, want %d", tc.q, len(d.Candidate.Conds), tc.conds)
		}
		want, err := caql.Eval(q, caql.MapSource{"b3": ext})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := apply(d, "q", want.Schema(), ext)
		if err != nil {
			t.Fatal(err)
		}
		got := materialized(d, want.Schema(), ext.Tuples(), -1)
		if !slices.EqualFunc(got.Tuples(), ref.Tuples(), relation.Tuple.Equal) || !got.EqualAsBag(want) {
			t.Fatalf("%s: Materialize gave %d rows, Apply %d, Eval %d", tc.q, got.Len(), ref.Len(), want.Len())
		}
		// An index lookup that applied condition k hands over only the rows
		// satisfying it; every other condition must still be evaluated.
		for k, c := range d.Candidate.Conds {
			var rows []relation.Tuple
			for _, row := range ext.Tuples() {
				if c.Eval(row) {
					rows = append(rows, row)
				}
			}
			if got := materialized(d, want.Schema(), rows, k); !slices.EqualFunc(got.Tuples(), ref.Tuples(), relation.Tuple.Equal) {
				t.Fatalf("%s: Materialize skipping condition %d gave %d rows, Apply %d", tc.q, k, got.Len(), ref.Len())
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { d.Materialize(nil, ext.Tuples(), -1) }); allocs > 1 {
			t.Fatalf("%s: %.0f allocations for %d rows, want 1", tc.q, allocs, got.Len())
		}
		// A destination with the capacity is the block, and costs nothing.
		dst := make([]relation.Value, 1, max(1, got.Len()*want.Schema().Arity()))
		if allocs := testing.AllocsPerRun(20, func() { d.Materialize(dst, ext.Tuples(), -1) }); allocs != 0 {
			t.Fatalf("%s: %.0f allocations into a block that fits, want 0", tc.q, allocs)
		}
		if vals, n := d.Materialize(dst, ext.Tuples(), -1); n > 0 && &vals[0] != &dst[:1][0] {
			t.Fatalf("%s: a block that fits was not used", tc.q)
		}
		vals, _ := d.Materialize(nil, ext.Tuples(), -1)
		for i := range vals {
			vals[i] = relation.Int(-1)
		}
		if ext.Tuple(0)[0].AsInt() != 0 || ext.Tuple(2999)[2].AsInt() != 9 {
			t.Fatalf("%s: overwriting the answer reached the source extension", tc.q)
		}
	}
}

// TestIdentity: a derivation is the identity only when it selects nothing,
// adds no constant and reads every element column once, in order; then
// ApplyLazy hands out its source's rows itself.
func TestIdentity(t *testing.T) {
	for _, tc := range []struct {
		e, q string
		want bool
	}{
		{"e(A, B) :- b2(A, B)", "q(X, Y) :- b2(X, Y)", true},
		{"e(A, B, C) :- b2(A, B) & b3(B, 2, C)", "q(X, Y, Z) :- b2(X, Y) & b3(Y, 2, Z)", true},
		{"e(A, B) :- b2(A, B)", "q(Y, X) :- b2(X, Y)", false},
		{"e(A, B) :- b2(A, B)", "q(X) :- b2(X, Y)", false},
		{"e(A, B) :- b2(A, B)", "q(X, Y, X) :- b2(X, Y)", false},
		{"e(A, B) :- b2(A, B)", "q(X, Y, 7) :- b2(X, Y)", false},
		{"e(A, B) :- b2(A, B)", "q(X, X) :- b2(X, X)", false},
		{"e(A, B) :- b2(A, B)", "q(X, Y) :- b2(X, Y) & X < 3", false},
		{"e(A, B) :- b2(A, B)", "q(X, Y) :- b2(X, Y) & 1 > 2", false},
		{"e(A, B, C) :- b3(A, B, C)", "q(X, Y) :- b3(X, Y, Z)", false},
	} {
		d, ok := DeriveFull(caql.MustParse(tc.e), caql.MustParse(tc.q))
		if !ok {
			t.Fatalf("%s from %s: not derivable", tc.q, tc.e)
		}
		if d.Identity() != tc.want {
			t.Errorf("%s from %s: Identity() = %v, want %v", tc.q, tc.e, !tc.want, tc.want)
		}
		src := relation.NewSliceIterator(nil)
		if tc.want && d.ApplyLazy(src) != relation.Iterator(src) {
			t.Errorf("%s from %s: ApplyLazy wraps its source", tc.q, tc.e)
		}
	}
}

// materialized is d.Materialize(nil, rows, skip) as a relation.
func materialized(d *Derivation, schema *relation.Schema, rows []relation.Tuple, skip int) *relation.Relation {
	vals, n := d.Materialize(nil, rows, skip)
	out := relation.New("q", schema)
	for i := 0; i < n; i++ {
		out.MustAppend(relation.Tuple(vals[i*schema.Arity() : (i+1)*schema.Arity()]))
	}
	return out
}

func TestExactMatch(t *testing.T) {
	a := caql.MustParse("d(X, Y) :- b2(X, Z) & b3(Z, 2, Y)")
	b := caql.MustParse("d(P, Q) :- b2(P, R) & b3(R, 2, Q)")
	c := caql.MustParse("d(P, Q) :- b2(P, R) & b3(R, 3, Q)")
	if !ExactMatch(a, b) {
		t.Error("alpha-equivalent queries should exact-match")
	}
	if ExactMatch(a, c) {
		t.Error("different constants should not exact-match")
	}
}

func TestRangeImplication(t *testing.T) {
	cmps := func(src string) *caql.Query { return caql.MustParse(src) }
	q := cmps("q(X) :- r(X) & X >= 3 & X < 10")
	r := RangeOf("X", q.Cmps)
	cases := []struct {
		op   relation.CmpOp
		c    int64
		want bool
	}{
		{relation.OpGe, 3, true},
		{relation.OpGe, 2, true},
		{relation.OpGe, 4, false},
		{relation.OpGt, 2, true},
		{relation.OpGt, 3, false},
		{relation.OpLt, 10, true},
		{relation.OpLt, 9, false},
		{relation.OpLe, 10, true},
		// x < 10 does not imply x <= 9 over reals (9.5 is in range); the
		// implication must be conservative.
		{relation.OpLe, 9, false},
		{relation.OpNe, 11, true},
		{relation.OpNe, 5, false},
		{relation.OpEq, 5, false},
	}
	for _, c := range cases {
		if got := r.Implies(c.op, relation.Int(c.c)); got != c.want {
			t.Errorf("[3,10).Implies(%s %d) = %v, want %v", c.op, c.c, got, c.want)
		}
	}
	// Exact value.
	qe := cmps("q(X) :- r(X) & X = 5")
	re := RangeOf("X", qe.Cmps)
	if !re.Implies(relation.OpLt, relation.Int(6)) || re.Implies(relation.OpLt, relation.Int(5)) {
		t.Error("exact-value implication wrong")
	}
	// Infeasible.
	qi := cmps("q(X) :- r(X) & X < 3 & X > 5")
	ri := RangeOf("X", qi.Cmps)
	if !ri.Infeasib || !ri.Implies(relation.OpEq, relation.Int(99)) {
		t.Error("infeasible range should imply everything")
	}
}

func TestRangeSubsumption(t *testing.T) {
	// Element caches X in [0, 100); query asks X in [10, 20]: derivable with
	// residual range selections.
	e := caql.MustParse("e(X, Y) :- r(X, Y) & X >= 0 & X < 100")
	q := caql.MustParse("q(X, Y) :- r(X, Y) & X >= 10 & X <= 20")
	d, ok := DeriveFull(e, q)
	if !ok {
		t.Fatal("range-contained query should be derivable")
	}
	if len(d.Candidate.Conds) == 0 {
		t.Fatal("expected residual range selections")
	}
	// Reverse direction must fail: element narrower than query.
	if _, ok := DeriveFull(q, e); ok {
		t.Fatal("narrow element must not derive wider query")
	}
}

func TestVarVarComparisonSubsumption(t *testing.T) {
	e := caql.MustParse("e(X, Y) :- r(X, Y) & X < Y")
	q := caql.MustParse("q(X, Y) :- r(X, Y) & X < Y")
	if _, ok := DeriveFull(e, q); !ok {
		t.Fatal("identical var-var comparison should be accepted")
	}
	q2 := caql.MustParse("q(X, Y) :- r(X, Y)")
	if _, ok := DeriveFull(e, q2); ok {
		t.Fatal("element with extra var-var constraint must be rejected")
	}
	// Flipped spelling still matches.
	q3 := caql.MustParse("q(X, Y) :- r(X, Y) & Y > X")
	if _, ok := DeriveFull(e, q3); !ok {
		t.Fatal("flipped var-var comparison should be accepted")
	}
}

func TestNonHeadConstantBindingRejected(t *testing.T) {
	// Element projects away Z; query binds Z's position to a constant. The
	// selection cannot be applied to ext(E): must reject.
	e := caql.MustParse("e(X) :- r(X, Z)")
	q := caql.MustParse("q(X) :- r(X, 5)")
	if _, ok := DeriveFull(e, q); ok {
		t.Fatal("constant on projected-away column must be rejected")
	}
	// With the column retained it works.
	e2 := caql.MustParse("e(X, Z) :- r(X, Z)")
	if _, ok := DeriveFull(e2, q); !ok {
		t.Fatal("retained column should allow the selection")
	}
}

func TestSharedVarNeedsColumns(t *testing.T) {
	// Query joins r and s on Y; element has them unjoined but projects Y
	// columns: equality enforceable.
	e := caql.MustParse("e(X, Y1, Y2, Z) :- r(X, Y1) & s(Y2, Z)")
	q := caql.MustParse("q(X, Z) :- r(X, Y) & s(Y, Z)")
	d, ok := DeriveFull(e, q)
	if !ok {
		t.Fatal("join enforceable via residual equality")
	}
	hasColCol := false
	for _, c := range d.Candidate.Conds {
		if c.Right >= 0 {
			hasColCol = true
		}
	}
	if !hasColCol {
		t.Fatal("expected a column-equality residual selection")
	}
	// Element projecting away one Y column cannot enforce the join.
	e2 := caql.MustParse("e(X, Z) :- r(X, Y1) & s(Y2, Z)")
	if _, ok := DeriveFull(e2, q); ok {
		t.Fatal("cross-product element without join columns must be rejected")
	}
	// Element that already joins is fine even without Y in head.
	e3 := caql.MustParse("e(X, Z) :- r(X, Y) & s(Y, Z)")
	if _, ok := DeriveFull(e3, q); !ok {
		t.Fatal("already-joined element should derive")
	}
}

func TestElementEquatesMoreThanQuery(t *testing.T) {
	// Element r(X,X) requires equality the query does not: more restricted.
	e := caql.MustParse("e(X) :- r(X, X)")
	q := caql.MustParse("q(X, Y) :- r(X, Y)")
	if cands := Match(e, q, headVars(q)); len(cands) != 0 {
		t.Fatal("diagonal element must not derive full relation")
	}
	// Opposite direction: query diagonal, element full — derivable with a
	// col=col selection.
	if _, ok := DeriveFull(caql.MustParse("e(X, Y) :- r(X, Y)"), caql.MustParse("q(X) :- r(X, X)")); !ok {
		t.Fatal("full element should derive diagonal query")
	}
}

// The big soundness property: whenever DeriveFull succeeds on random
// element/query pairs, applying the derivation to the element's extension
// equals direct evaluation of the query. Additionally, exact self-derivation
// always succeeds.
func TestDerivationSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	names := map[string]int{"r": 2, "s": 2, "u": 3}
	derived := 0
	for trial := 0; trial < 400; trial++ {
		src := paperSource(rng, names)
		e := randomQuery(rng, "e", names)
		if e == nil {
			continue
		}
		// Bias toward derivable pairs: most trials specialize the element
		// (instantiate a head variable and/or tighten with a comparison),
		// the rest draw an independent random query.
		var q *caql.Query
		if rng.Intn(10) < 7 {
			q = specialize(rng, e)
		} else {
			q = randomQuery(rng, "q", names)
		}
		if q == nil {
			continue
		}
		// Self-derivation must always hold.
		if _, ok := DeriveFull(e, e.Clone()); !ok {
			t.Fatalf("self-derivation failed for %s", e)
		}
		// The one-block build decides and derives exactly as Match-then-build,
		// also with q's atoms in the other order (an unsorted assignment).
		pe := Prepare(e)
		rev := q.Clone()
		slices.Reverse(rev.Rels)
		for _, qq := range []*caql.Query{rev, q} {
			pq := Prepare(qq)
			got, _ := pe.DeriveFull(pq, nil)
			ref, _ := referenceDeriveFull(pe, pq)
			if diff := sameDerivation(got, ref); diff != "" {
				t.Fatalf("trial %d: DeriveFull departs from the reference: %s\nE: %s\nQ: %s", trial, diff, e, qq)
			}
		}
		d, ok := pe.DeriveFull(Prepare(q), nil)
		if !ok {
			continue
		}
		derived++
		ext, err := caql.Eval(e, src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := caql.Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := apply(d, "q", want.Schema(), ext)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d unsound derivation:\nE: %s\nQ: %s\ngot %v\nwant %v",
				trial, e, q, relation.DistinctRel(got).Sort(), relation.DistinctRel(want).Sort())
		}
		if mat := materialized(d, want.Schema(), ext.Tuples(), -1); !slices.EqualFunc(mat.Tuples(), got.Tuples(), relation.Tuple.Equal) {
			t.Fatalf("trial %d: Materialize differs from Apply:\nE: %s\nQ: %s\ngot %v\nwant %v", trial, e, q, mat, got)
		}
	}
	if derived < 20 {
		t.Fatalf("too few successful derivations to be meaningful: %d", derived)
	}
}

// specialize derives a random instance of e: constant bindings on head
// variables and/or extra range comparisons.
func specialize(rng *rand.Rand, e *caql.Query) *caql.Query {
	q := e.Clone()
	q.Head.Pred = "q"
	var headVarList []string
	for _, t := range q.Head.Args {
		if t.IsVar() {
			headVarList = append(headVarList, t.Var)
		}
	}
	if len(headVarList) > 0 && rng.Intn(2) == 0 {
		v := headVarList[rng.Intn(len(headVarList))]
		q = q.Instantiate(map[string]relation.Value{v: relation.Int(int64(rng.Intn(5)))})
	}
	if len(headVarList) > 0 && rng.Intn(2) == 0 {
		v := headVarList[rng.Intn(len(headVarList))]
		ops := []relation.CmpOp{relation.OpLt, relation.OpLe, relation.OpGt, relation.OpGe, relation.OpNe}
		q.Cmps = append(q.Cmps, logic.A(ops[rng.Intn(len(ops))].String(), logic.V(v), logic.CInt(int64(rng.Intn(5)))))
	}
	if q.Validate() != nil {
		return nil
	}
	return q
}

// randomQuery builds a random valid conjunctive query (nil if invalid).
func randomQuery(rng *rand.Rand, name string, names map[string]int) *caql.Query {
	preds := []string{"r", "s", "u"}
	varsPool := []string{"X", "Y", "Z", "W"}
	term := func() logic.Term {
		if rng.Intn(5) == 0 {
			return logic.CInt(int64(rng.Intn(5)))
		}
		return logic.V(varsPool[rng.Intn(len(varsPool))])
	}
	var body []logic.Atom
	for i := 0; i < 1+rng.Intn(2); i++ {
		p := preds[rng.Intn(len(preds))]
		args := make([]logic.Term, names[p])
		for j := range args {
			args[j] = term()
		}
		body = append(body, logic.A(p, args...))
	}
	varSet := logic.VarsOf(body)
	var varList []string
	for _, v := range varsPool {
		if varSet[v] {
			varList = append(varList, v)
		}
	}
	if len(varList) == 0 {
		return nil
	}
	if rng.Intn(3) == 0 {
		ops := []relation.CmpOp{relation.OpLt, relation.OpLe, relation.OpGt, relation.OpGe, relation.OpNe}
		v := logic.V(varList[rng.Intn(len(varList))])
		body = append(body, logic.A(ops[rng.Intn(len(ops))].String(), v, logic.CInt(int64(rng.Intn(5)))))
	}
	// Head: random subset (nonempty) of vars.
	var head []logic.Term
	for _, v := range varList {
		if rng.Intn(3) != 0 {
			head = append(head, logic.V(v))
		}
	}
	if len(head) == 0 {
		head = append(head, logic.V(varList[0]))
	}
	q := caql.NewQuery(logic.A(name, head...), body)
	if q.Validate() != nil {
		return nil
	}
	return q
}

// Decomposition: a multi-atom query partially covered by an element; the
// piece joined with the residual equals direct evaluation.
func TestPartialCoverageDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	src := paperSource(rng, map[string]int{"r": 2, "s": 2, "u": 3})
	q := caql.MustParse("q(X, W) :- r(X, Y) & s(Y, Z) & u(Z, W, 1)")
	e := caql.MustParse("e(X, Y, Z) :- r(X, Y) & s(Y, Z)")

	needed := map[string]bool{"X": true, "W": true, "Z": true} // Z shared with residual
	cands := Match(e, q, needed)
	if len(cands) == 0 {
		t.Fatal("element should cover the r,s prefix")
	}
	cand := cands[0]
	if len(cand.Cover) != 2 {
		t.Fatalf("cover = %v", cand.Cover)
	}

	ext, err := caql.Eval(e, src)
	if err != nil {
		t.Fatal(err)
	}
	piece := cand.Materialize("piece", ext)

	// Rewrite: q'(X, W) :- piece(vars...) & u(Z, W, 1)
	overlay := caql.MapSource{"piece": piece, "u": src["u"]}
	rew := caql.NewQuery(q.Head, append([]logic.Atom{cand.PieceAtom("piece")}, q.Rels[2]))
	got, err := caql.Eval(rew, overlay)
	if err != nil {
		t.Fatal(err)
	}
	want, err := caql.Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("decomposed evaluation wrong:\ngot %v\nwant %v", got, want)
	}
}

func TestMatchCandidateOrdering(t *testing.T) {
	// Elements with larger cover should sort first.
	q := caql.MustParse("q(X, Z) :- r(X, Y) & s(Y, Z)")
	e := caql.MustParse("e(X, Y, Z) :- r(X, Y) & s(Y, Z)")
	cands := Match(e, q, map[string]bool{"X": true, "Z": true})
	if len(cands) == 0 || len(cands[0].Cover) != 2 {
		t.Fatalf("expected full-cover candidate first: %+v", cands)
	}
}

// A derivation is a function of (element, query): the residual selections
// come out in extension-column order however the maps inside validate
// happen to iterate.
func TestMatchCondsInColumnOrder(t *testing.T) {
	e := caql.MustParse("e(X, Y, Z, W) :- r(X, Y) & s(Z, W)")
	q := caql.MustParse(`q(Y) :- r(3, Y) & s(Y, "c2")`)
	want := []relation.Cond{
		relation.ColConst(0, relation.OpEq, relation.Int(3)),
		relation.ColCol(1, relation.OpEq, 2),
		relation.ColConst(3, relation.OpEq, relation.Str("c2")),
	}
	for i := 0; i < 100; i++ {
		cands := Match(e, q, headVars(q))
		if len(cands) != 1 {
			t.Fatalf("run %d: %d candidates, want 1", i, len(cands))
		}
		// Constants by Value.Equal: two "c2" literals are one value at two
		// addresses, which reflect.DeepEqual would tell apart.
		same := func(g, w relation.Cond) bool {
			return g.Left == w.Left && g.Op == w.Op && g.Right == w.Right && g.Const.Equal(w.Const)
		}
		if got := cands[0].Conds; !slices.EqualFunc(got, want, same) {
			t.Fatalf("run %d: conds %v, want %v", i, got, want)
		}
	}
}

// TestDeriveFullIntoBlock: a derivation built into a reused block is the one
// a new block gets, and costs no allocation; a refusal leaves the block's
// derivation as it was; and a lazy answer keeps its own copy, so building
// into the block again while the answer is read changes nothing it hands
// out.
func TestDeriveFullIntoBlock(t *testing.T) {
	e := caql.MustParse("e(A, B, C) :- b3(A, B, C)")
	ext := relation.New("e", relation.NewSchema(at("A", relation.KindInt), at("B", relation.KindInt), at("C", relation.KindInt)))
	for i := 0; i < 300; i++ {
		ext.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 3)), relation.Int(int64(i % 10))})
	}
	pe := Prepare(e)
	var blk DerivationBlock
	for _, tc := range []struct{ q, other string }{
		{"q(A, 7) :- b3(A, B, 7) & A > 20", "r(C, B, 5) :- b3(4, B, C)"},
		{"r(C, B, 5) :- b3(4, B, C)", "q(A, 7) :- b3(A, B, 7) & A > 20"},
	} {
		q, other := caql.MustParse(tc.q), caql.MustParse(tc.other)
		pq, po := Prepare(q), Prepare(other)
		d, ok := pe.DeriveFull(pq, &blk)
		fresh, _ := pe.DeriveFull(pq, nil)
		if !ok || !reflect.DeepEqual(d, fresh) {
			t.Fatalf("%s: into a reused block %+v, into a new one %+v", tc.q, d, fresh)
		}
		if n := testing.AllocsPerRun(20, func() { pe.DeriveFull(pq, &blk) }); n != 0 {
			t.Errorf("%s: DeriveFull into a reused block allocates %v, want 0", tc.q, n)
		}
		if _, ok := Prepare(caql.MustParse("w(X) :- b2(X, X)")).DeriveFull(pq, &blk); ok || !reflect.DeepEqual(d, fresh) {
			t.Fatalf("%s: a refusal changed the block's derivation to %+v", tc.q, d)
		}

		want, err := caql.Eval(q, caql.MapSource{"b3": ext})
		if err != nil {
			t.Fatal(err)
		}
		lazy := d.ApplyLazy(ext.Iter())
		kept := relation.Take(lazy, want.Len()/2)
		if _, ok := pe.DeriveFull(po, &blk); !ok {
			t.Fatalf("%s does not derive %s", e, other)
		}
		got := relation.FromTuples("out", want.Schema(), append(kept, relation.Drain("rest", want.Schema(), lazy).Tuples()...))
		if !got.EqualAsBag(want) {
			t.Fatalf("%s: lazy answer read across a rebuild of its block: got %v, want %v", tc.q, got.Tuples(), want.Tuples())
		}
	}
}
