package advice

import (
	"math/rand"
	"strings"
	"testing"
)

func BenchmarkParseAdvice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(paperExample1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackerObservePredict(b *testing.B) {
	a := MustParse(paperExample1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := newTracker(a.Path)
		tr.Observe("d1")
		tr.Observe("d2")
		tr.Distance(8, "d1")
		tr.Observe("d3")
		tr.Distance(1, "d2")
	}
}

// Advice parser robustness on garbage.
func TestAdviceParserNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	alphabet := `view path base d1XY09_(),.:-<>=!&[]^?|* "` + "\n"
	for i := 0; i < 3000; i++ {
		var sb strings.Builder
		for j := 0; j < rng.Intn(60); j++ {
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
			ParsePath(src)
		}()
	}
}
