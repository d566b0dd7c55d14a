package remotedb

import (
	"slices"
	"strconv"

	"repro/internal/relation"
)

// The DML of the remote DBMS: a small SQL subset. The Remote DBMS Interface
// of the CMS translates CAQL queries into this language (Section 5.5: "The
// CMS-DBMS language interface is given by the DML of the remote DBMS").
//
// Supported statements:
//
//	CREATE TABLE t (a INT, b TEXT, ...)
//	INSERT INTO t VALUES (1, 'x'), (2, 'y')
//	SELECT [DISTINCT] items FROM t1 [AS] a1, t2 [AS] a2
//	       [WHERE cond AND cond ...]
//	       [GROUP BY col, ...]
//	       [ORDER BY col, ...] [LIMIT n]
//
// Select items are qualified columns (a1.x), bare columns (unambiguous), *,
// or aggregates COUNT(*), COUNT(c), SUM(c), MIN(c), MAX(c), AVG(c).
// Conditions are col OP col or col OP literal with OP in = != < <= > >=.
// Notably absent (by design, mirroring 1990 DBMS limits the paper leans on):
// OR, NOT, subqueries, unions, recursion — those are CMS-only capabilities.

// Statement is a parsed DML statement: exactly one field is non-nil.
// Explain marks an EXPLAIN SELECT: the engine returns the compiled plan of
// the wrapped SELECT (as a one-column relation) instead of executing it.
// Analyze additionally executes the plan and annotates every node with the
// actual rows/ops/wall-time it produced (EXPLAIN ANALYZE SELECT).
type Statement struct {
	Create  *CreateStmt
	Insert  *InsertStmt
	Select  *SelectStmt
	Explain bool
	Analyze bool
}

// CreateStmt is CREATE TABLE.
type CreateStmt struct {
	Table  string
	Schema *relation.Schema
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	Rows  []relation.Tuple
}

// SelectStmt is a conjunctive select-project-join with optional aggregation.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    []SQLCond
	GroupBy  []ColRef
	OrderBy  []ColRef
	Limit    int // -1 when absent
}

// TableRef names a table and its alias (alias defaults to the table name).
type TableRef struct {
	Table string
	Alias string
}

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Qualifier string // alias; empty if bare
	Column    string
}

// String renders "qualifier.column" or "column".
func (c ColRef) String() string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

func (c ColRef) appendSQL(dst []byte) []byte {
	if c.Qualifier != "" {
		dst = append(append(dst, c.Qualifier...), '.')
	}
	return append(dst, c.Column...)
}

// SelectItem is one output column: a column reference, a star, or an
// aggregate.
type SelectItem struct {
	Star bool
	Col  ColRef
	// Agg is non-zero-valued when the item is an aggregate; AggStar marks
	// COUNT(*).
	IsAgg   bool
	Agg     relation.AggOp
	AggStar bool
}

// SQLCond is a conjunct of the WHERE clause.
type SQLCond struct {
	Left ColRef
	Op   relation.CmpOp
	// RightCol is valid when RightIsCol; otherwise RightVal holds a literal.
	RightIsCol bool
	RightCol   ColRef
	RightVal   relation.Value
}

// String renders the condition in SQL syntax.
func (c SQLCond) String() string { return string(c.appendSQL(nil, appendSQLLiteral)) }

// appendSQL appends the condition's SQL text to dst, its literal, if any,
// written by lit (see SelectStmt.appendSQL).
func (c SQLCond) appendSQL(dst []byte, lit func([]byte, relation.Value) []byte) []byte {
	op := c.Op.String()
	if op == "!=" {
		op = "<>"
	}
	dst = append(append(append(c.Left.appendSQL(dst), ' '), op...), ' ')
	if c.RightIsCol {
		return c.RightCol.appendSQL(dst)
	}
	return lit(dst, c.RightVal)
}

// appendSQLLiteral appends v as a SQL literal that ParseSQL reads back as the
// same value: strings single-quoted, and the rest as Value.AppendString
// renders them, a float always with a point or an exponent, so 50.0 does not
// come back as the int 50. A NaN or infinite float
// has no literal; TranslateCAQL and ShapeTemplate.Translate refuse one before
// it gets here.
func appendSQLLiteral(dst []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindString:
		s := v.AsString()
		dst = append(dst, '\'')
		for i := 0; i < len(s); i++ {
			if s[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, s[i])
		}
		return append(dst, '\'')
	case relation.KindBool:
		if v.AsBool() {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	}
	return v.AppendString(dst)
}

// shapeKey hashes the statement's shape, FNV-1a over a walk of the AST:
// everything but the values of its WHERE literals, each of which contributes
// only its kind. LIMIT's count is part of the shape. Two statements of one
// shape compile to one plan up to the join order (Plan.orderHolds); sameShape
// is the exact test the 64-bit key stands in for.
func (s *SelectStmt) shapeKey() uint64 {
	h := shapeHash(fnvOffset64)
	h.flag(s.Distinct)
	h.int(s.Limit)
	h.int(len(s.Items))
	for _, it := range s.Items {
		h.flag(it.Star)
		h.flag(it.IsAgg)
		h.int(int(it.Agg))
		h.flag(it.AggStar)
		h.col(it.Col)
	}
	h.int(len(s.From))
	for _, t := range s.From {
		h.str(t.Table)
		h.str(t.Alias)
	}
	h.int(len(s.Where))
	for _, c := range s.Where {
		h.col(c.Left)
		h.int(int(c.Op))
		h.flag(c.RightIsCol)
		if c.RightIsCol {
			h.col(c.RightCol)
		} else {
			h.int(int(c.RightVal.Kind()))
		}
	}
	h.cols(s.GroupBy)
	h.cols(s.OrderBy)
	return uint64(h)
}

// sameShape reports whether a and b differ at most in the values of their
// WHERE literals: it compares exactly what shapeKey hashes.
func sameShape(a, b *SelectStmt) bool {
	if a.Distinct != b.Distinct || a.Limit != b.Limit || len(a.Items) != len(b.Items) ||
		len(a.From) != len(b.From) || len(a.Where) != len(b.Where) ||
		!slices.Equal(a.GroupBy, b.GroupBy) || !slices.Equal(a.OrderBy, b.OrderBy) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	for i := range a.From {
		if a.From[i] != b.From[i] {
			return false
		}
	}
	for i, c := range a.Where {
		d := b.Where[i]
		if c.Left != d.Left || c.Op != d.Op || c.RightIsCol != d.RightIsCol {
			return false
		}
		if c.RightIsCol && c.RightCol != d.RightCol || !c.RightIsCol && c.RightVal.Kind() != d.RightVal.Kind() {
			return false
		}
	}
	return true
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shapeHash is an FNV-1a state. Strings are length-prefixed, so no two
// different walks feed it the same bytes.
type shapeHash uint64

func (h *shapeHash) byte(b byte) { *h = (*h ^ shapeHash(b)) * fnvPrime64 }

func (h *shapeHash) int(n int) {
	for i := 0; i < 64; i += 8 {
		h.byte(byte(uint64(n) >> i))
	}
}

func (h *shapeHash) flag(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *shapeHash) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *shapeHash) col(c ColRef) {
	h.str(c.Qualifier)
	h.str(c.Column)
}

func (h *shapeHash) cols(cs []ColRef) {
	h.int(len(cs))
	for _, c := range cs {
		h.col(c)
	}
}

// String renders the statement back to SQL text.
func (s *SelectStmt) String() string { return string(s.appendSQL(nil, appendSQLLiteral)) }

// appendSQL appends the statement's SQL text to dst, each WHERE literal
// written by lit. String passes appendSQLLiteral; a shape template passes a
// cut that writes nothing and notes where the literal goes, so the text and
// the template come from one walk.
func (s *SelectStmt) appendSQL(dst []byte, lit func([]byte, relation.Value) []byte) []byte {
	dst = append(dst, "SELECT "...)
	if s.Distinct {
		dst = append(dst, "DISTINCT "...)
	}
	for i, it := range s.Items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		switch {
		case it.Star:
			dst = append(dst, '*')
		case it.IsAgg && it.AggStar:
			dst = append(append(dst, it.Agg.String()...), "(*)"...)
		case it.IsAgg:
			dst = append(it.Col.appendSQL(append(append(dst, it.Agg.String()...), '(')), ')')
		default:
			dst = it.Col.appendSQL(dst)
		}
	}
	dst = append(dst, " FROM "...)
	for i, t := range s.From {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, t.Table...)
		if t.Alias != "" && t.Alias != t.Table {
			dst = append(append(dst, " AS "...), t.Alias...)
		}
	}
	for i, c := range s.Where {
		if i == 0 {
			dst = append(dst, " WHERE "...)
		} else {
			dst = append(dst, " AND "...)
		}
		dst = c.appendSQL(dst, lit)
	}
	dst = appendColList(dst, " GROUP BY ", s.GroupBy)
	dst = appendColList(dst, " ORDER BY ", s.OrderBy)
	if s.Limit >= 0 {
		dst = strconv.AppendInt(append(dst, " LIMIT "...), int64(s.Limit), 10)
	}
	return dst
}

// appendColList appends clause and the columns, comma-separated, unless
// there are none.
func appendColList(dst []byte, clause string, cols []ColRef) []byte {
	for i, c := range cols {
		if i == 0 {
			dst = append(dst, clause...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = c.appendSQL(dst)
	}
	return dst
}
