package workload

import (
	"context"
	"testing"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

func TestKinshipDeterministic(t *testing.T) {
	a := Kinship(7, 50)
	b := Kinship(7, 50)
	for i := range a.Tables {
		if !a.Tables[i].EqualAsBag(b.Tables[i]) {
			t.Fatalf("kinship not deterministic for %s", a.Tables[i].Name)
		}
	}
	c := Kinship(8, 50)
	same := true
	for i := range a.Tables {
		if !a.Tables[i].EqualAsBag(c.Tables[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestKinshipSemanticsSane(t *testing.T) {
	w := Kinship(3, 60)
	// Everyone is male xor female.
	male, female := w.Tables[1], w.Tables[2]
	seen := map[string]bool{}
	for _, tu := range male.Tuples() {
		seen[tu[0].AsString()] = true
	}
	for _, tu := range female.Tuples() {
		if seen[tu[0].AsString()] {
			t.Fatalf("person %s both male and female", tu[0].AsString())
		}
	}
	// grandparent answers exist under bottom-up evaluation.
	derived := fixpoint(t, w)
	if derived[logic.PredRef{Name: "grandparent", Arity: 2}].Len() == 0 {
		t.Fatal("no grandparents in a 60-person forest (suspicious)")
	}
	// anc is acyclic: nobody is their own ancestor.
	for _, tu := range derived[logic.PredRef{Name: "anc", Arity: 2}].Tuples() {
		if tu[0].Equal(tu[1]) {
			t.Fatalf("cyclic ancestry: %v", tu)
		}
	}
}

func TestSuppliersQueriesAnswerable(t *testing.T) {
	w := Suppliers(5, 20)
	derived := fixpoint(t, w)
	for _, q := range w.Queries {
		if derived[q.Ref()] == nil {
			t.Fatalf("query %s has no extension", q)
		}
	}
}

func TestChainShape(t *testing.T) {
	w := Chain(1, 100, 20)
	if len(w.Tables) != 3 || w.Tables[2].Len() != 200 {
		t.Fatalf("chain tables wrong: %d, b3=%d", len(w.Tables), w.Tables[2].Len())
	}
	e := w.Engine()
	if len(e.Tables()) != 3 {
		t.Fatal("engine load failed")
	}
	st, err := e.Stats("b2")
	if err != nil || st.Rows != 100 {
		t.Fatalf("b2 stats: %+v %v", st, err)
	}
}

// fixpoint derives every predicate of w's KB: caql.Fixpoint over all its
// clauses.
func fixpoint(t *testing.T, w *Workload) map[logic.PredRef]*relation.Relation {
	t.Helper()
	var rules []*caql.Query
	for _, ref := range w.KB.Preds() {
		for _, c := range w.KB.Rules(ref) {
			rules = append(rules, caql.NewQuery(c.Head, c.Body))
		}
	}
	derived, _, err := caql.Fixpoint(context.Background(), rules, w.Source())
	if err != nil {
		t.Fatal(err)
	}
	return derived
}
