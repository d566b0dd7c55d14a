package remotedb

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	emp := relation.New("emp", relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "dept", Kind: relation.KindInt},
		relation.Attr{Name: "salary", Kind: relation.KindFloat}))
	for i := 0; i < rows; i++ {
		emp.MustAppend(relation.Tuple{
			relation.Int(int64(i)),
			relation.Int(int64(rng.Intn(50))),
			relation.Float(float64(30000 + rng.Intn(100000)))})
	}
	dept := relation.New("dept", relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "name", Kind: relation.KindString}))
	for i := 0; i < 50; i++ {
		dept.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str("d")})
	}
	e.LoadTable(emp)
	e.LoadTable(dept)
	return e
}

func BenchmarkSQLParse(b *testing.B) {
	src := "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id AND e.salary > 50000 ORDER BY id LIMIT 100"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSQL(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLSelectJoin(b *testing.B) {
	e := benchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.ExecuteSQL("SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id AND e.salary > 90000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLAggregate(b *testing.B) {
	e := benchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.ExecuteSQL("SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	e := benchEngine(b, 1000)
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPool(addr, PoolOptions{Size: 1, Costs: DefaultCosts()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("SELECT id FROM emp WHERE dept = 7"); err != nil {
			b.Fatal(err)
		}
	}
}

// SQL parser robustness.
func TestSQLParserNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	alphabet := "SELECT FROM WHERE abz09_.,*()='<>! "
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
			ParseSQL(src)
		}()
	}
}
