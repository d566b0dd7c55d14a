package caql

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func BenchmarkParse(b *testing.B) {
	src := `d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y) & X < 10 & Y != 3`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonical(b *testing.B) {
	q := MustParse(`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y) & X < 10`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Canonical()
	}
}

func BenchmarkEvalJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := MapSource{}
	for _, name := range []string{"r", "s"} {
		rel := relation.New(name, relation.NewSchema(
			relation.Attr{Name: "a", Kind: relation.KindInt},
			relation.Attr{Name: "b", Kind: relation.KindInt}))
		for i := 0; i < 5000; i++ {
			rel.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(500))), relation.Int(int64(rng.Intn(500)))})
		}
		src[name] = rel
	}
	q := MustParse("q(X, Z) :- r(X, Y) & s(Y, Z) & X < 100")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// Parser robustness on garbage.
func TestCAQLParserNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	alphabet := `abXY09_(),.:-<>=!&"` + " "
	for i := 0; i < 3000; i++ {
		var sb strings.Builder
		for j := 0; j < rng.Intn(50); j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			Parse(src)
			ParseProgram(src)
		}()
	}
}
