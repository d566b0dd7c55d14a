package logic

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Parser robustness: arbitrary garbage must produce errors, never panics.
func TestParserNoPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	alphabet := `abcXYZ09_(),.:-<>=!&[]/"\% ` + "\n\t"
	for i := 0; i < 3000; i++ {
		n := rng.Intn(60)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			ParseProgram(src)
			parseClause(src)
			ParseAtom(src)
		}()
	}
}

// Mutations of valid programs also never panic.
func TestParserNoPanicOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	base := `
		:- base(b1/2).
		:- mutex(m/1, f/1).
		:- fd(b1/2, [1] -> [2]).
		k1(X, Y) :- b1(c1, Y), k2(X, Y), X != Y, Y >= 3.
	`
	for i := 0; i < 3000; i++ {
		mutated := []byte(base)
		for m := 0; m < 1+rng.Intn(4); m++ {
			pos := rng.Intn(len(mutated))
			switch rng.Intn(3) {
			case 0:
				mutated[pos] = byte(rng.Intn(94) + 33)
			case 1:
				mutated = append(mutated[:pos], mutated[pos+1:]...)
			default:
				mutated = append(mutated[:pos], append([]byte{byte(rng.Intn(94) + 33)}, mutated[pos:]...)...)
			}
		}
		src := string(mutated)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %q: %v", src, r)
				}
			}()
			ParseProgram(src)
		}()
	}
}

// FuzzParseProgram: any text parses to an error, or to a KB whose String()
// parses back to the same String(), and each of whose clauses prints as a
// clause that parseClause reads back equal. Never a panic.
func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		`
		:- base(b1/2).
		:- mutex(m/1, f/1).
		:- fd(b1/2, [1] -> [2]).
		k1(X, Y) :- b1(c1, Y), k2(X, Y), X != Y, Y >= 3.
		`,
		"anc(X, Y) :- parent(X, Y).\nanc(X, Y) :- parent(X, Z), anc(Z, Y).\n:- recursive(anc/2).",
		`likes(tom, "red wine"). likes(ann, 'x'). p(1.5, -2, 1e-05, true, null).`,
		`p(X) :- q(X, "it's \"quoted\""), X =< 2.0, X <> 3.`,
		"p :- q. q.",
		`p(a) :- "unclosed.`,
		"p(X) :- q(X). % a comment. with periods.\n# another. one.\nq(1).",
		`p(X) :- q(X, "café ñ"). r(café).`,
		"p(X) :- q(X, \xc3\xc3).",
		"p(X) :- X < 2.5e3, q(X, Y), Y >= -0.5, 3 < 4.\nq(1E+2, 99999999999999999999).",
		"p(A, B, C, D, E, F, G, H, I) :- q(A, B, C, D, E, F, G, H, I).",
		"a:-0=-0.0.", // −0.0 once printed as -0 and read back as an int
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		kb, err := ParseProgram(src)
		if err != nil {
			return
		}
		text := kb.String()
		again, err := ParseProgram(text)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse back: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q printed as %q, which prints back as %q", src, text, got)
		}
		for _, ref := range kb.Preds() {
			for _, c := range kb.Rules(ref) {
				re, err := parseClause(c.String())
				if err != nil {
					t.Fatalf("clause %s of %q does not parse back: %v", c, src, err)
				}
				if !re.Head.Equal(c.Head) || !slices.EqualFunc(re.Body, c.Body, Atom.Equal) {
					t.Fatalf("clause %s of %q parses back as %s", c, src, re)
				}
			}
		}
	})
}
