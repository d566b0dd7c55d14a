package remotedb

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// ParseSQL parses one DML statement. It lexes on demand, one token ahead of
// the parser, so a statement costs no token slice; a string literal without a
// doubled quote is a substring of src; and an INSERT's rows are one value
// arena and one tuple slice, sized by a counting pass over the VALUES list.
func ParseSQL(src string) (*Statement, error) {
	p := sqlParser{src: src}
	p.advance()
	st, err := p.parseStatement()
	if p.err != nil {
		// The parser met the end of input where a token failed to lex.
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if !p.atEOF() && !p.atPunct(";") {
		return nil, fmt.Errorf("remotedb: trailing input at %q", p.tok.text)
	}
	return st, nil
}

type sqlTokKind int

const (
	sqlEOF sqlTokKind = iota
	sqlWord
	sqlNumber
	sqlString
	sqlPunct
)

type sqlToken struct {
	kind sqlTokKind
	// text is the token's source text, for a string literal the text between
	// its quotes. Keywords are matched case-insensitively.
	text string
	// esc marks a string literal whose doubled quotes are still to be undone.
	esc bool
}

// sqlLex lexes the token that starts at or after src[i:], returning it and
// the offset after it.
func sqlLex(src string, i int) (sqlToken, int, error) {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		return sqlToken{kind: sqlEOF}, i, nil
	}
	switch c := src[i]; {
	case c == '\'':
		esc := false
		for j := i + 1; j < len(src); j++ {
			if src[j] != '\'' {
				continue
			}
			if j+1 < len(src) && src[j+1] == '\'' { // doubled quote escape
				esc = true
				j++
				continue
			}
			return sqlToken{kind: sqlString, text: src[i+1 : j], esc: esc}, j + 1, nil
		}
		return sqlToken{}, len(src), fmt.Errorf("remotedb: unterminated string literal")
	case isDigit(c) || c == '-' && i+1 < len(src) && isDigit(src[i+1]):
		// Digits, points and exponents; a sign only right after an exponent.
		j := i + 1
		for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
			(src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E')) {
			j++
		}
		return sqlToken{kind: sqlNumber, text: src[i:j]}, j, nil
	case isSQLWordStart(c):
		j := i + 1
		for j < len(src) && isSQLWordPart(src[j]) {
			j++
		}
		return sqlToken{kind: sqlWord, text: src[i:j]}, j, nil
	}
	if i+1 < len(src) {
		switch two := src[i : i+2]; two {
		case "<=", ">=", "<>", "!=":
			return sqlToken{kind: sqlPunct, text: two}, i + 2, nil
		}
	}
	switch src[i] {
	case '(', ')', ',', '*', '.', '=', '<', '>', ';':
		return sqlToken{kind: sqlPunct, text: src[i : i+1]}, i + 1, nil
	}
	return sqlToken{}, len(src), fmt.Errorf("remotedb: unexpected character %q", string(src[i]))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSQLWordStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isSQLWordPart(c byte) bool {
	return isSQLWordStart(c) || isDigit(c)
}

type sqlParser struct {
	src  string
	tok  sqlToken // the current token
	next int      // the offset after tok
	err  error    // the first lexing failure; the token that failed reads as sqlEOF
}

func (p *sqlParser) advance() { p.tok, p.next = p.lexAt(p.next) }

func (p *sqlParser) atEOF() bool { return p.tok.kind == sqlEOF }

func (p *sqlParser) lexAt(i int) (sqlToken, int) {
	t, j, err := sqlLex(p.src, i)
	if err != nil && p.err == nil {
		p.err = err
	}
	return t, j
}

func (p *sqlParser) atWord(w string) bool {
	return p.tok.kind == sqlWord && strings.EqualFold(p.tok.text, w)
}

func (p *sqlParser) atPunct(s string) bool {
	return p.tok.kind == sqlPunct && p.tok.text == s
}

// peekPunct reports whether the token after the current one is punctuation s.
func (p *sqlParser) peekPunct(s string) bool {
	t, _ := p.lexAt(p.next)
	return t.kind == sqlPunct && t.text == s
}

func (p *sqlParser) expectWord(w string) error {
	if !p.atWord(w) {
		return fmt.Errorf("remotedb: expected %s, found %q", w, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *sqlParser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return fmt.Errorf("remotedb: expected %q, found %q", s, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *sqlParser) identifier() (string, error) {
	t := p.tok
	if t.kind != sqlWord {
		return "", fmt.Errorf("remotedb: expected identifier, found %q", t.text)
	}
	p.advance()
	return strings.ToLower(t.text), nil
}

func (p *sqlParser) parseStatement() (*Statement, error) {
	switch {
	case p.atWord("EXPLAIN"):
		p.advance()
		analyze := false
		if p.atWord("ANALYZE") {
			p.advance()
			analyze = true
		}
		if !p.atWord("SELECT") {
			return nil, fmt.Errorf("remotedb: EXPLAIN expects SELECT, found %q", p.tok.text)
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Statement{Select: sel, Explain: true, Analyze: analyze}, nil
	case p.atWord("CREATE"):
		c, err := p.parseCreate()
		if err != nil {
			return nil, err
		}
		return &Statement{Create: c}, nil
	case p.atWord("INSERT"):
		ins, err := p.parseInsert()
		if err != nil {
			return nil, err
		}
		return &Statement{Insert: ins}, nil
	case p.atWord("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Statement{Select: sel}, nil
	default:
		return nil, fmt.Errorf("remotedb: expected CREATE, INSERT, or SELECT, found %q", p.tok.text)
	}
}

func (p *sqlParser) parseCreate() (*CreateStmt, error) {
	p.advance() // CREATE
	if err := p.expectWord("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var attrs []relation.Attr
	for {
		col, err := p.identifier()
		if err != nil {
			return nil, err
		}
		t := p.tok
		if t.kind != sqlWord {
			return nil, fmt.Errorf("remotedb: expected type for column %s", col)
		}
		var kind relation.Kind
		switch strings.ToUpper(t.text) {
		case "INT", "INTEGER", "BIGINT":
			kind = relation.KindInt
		case "FLOAT", "REAL", "DOUBLE":
			kind = relation.KindFloat
		case "TEXT", "VARCHAR", "CHAR", "STRING":
			kind = relation.KindString
		case "BOOL", "BOOLEAN":
			kind = relation.KindBool
		default:
			return nil, fmt.Errorf("remotedb: unknown column type %q", t.text)
		}
		p.advance()
		// Ignore an optional length like VARCHAR(20).
		if p.atPunct("(") {
			p.advance()
			if p.tok.kind != sqlNumber {
				return nil, fmt.Errorf("remotedb: expected length after type")
			}
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		attrs = append(attrs, relation.Attr{Name: col, Kind: kind})
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateStmt{Table: name, Schema: relation.NewSchema(attrs...)}, nil
}

func (p *sqlParser) parseInsert() (*InsertStmt, error) {
	p.advance() // INSERT
	if err := p.expectWord("INTO"); err != nil {
		return nil, err
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("VALUES"); err != nil {
		return nil, err
	}
	nrows, nvals := p.countValues()
	vals := make([]relation.Value, 0, nvals)
	ins := &InsertStmt{Table: name, Rows: make([]relation.Tuple, 0, nrows)}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		start := len(vals)
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.atPunct(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, vals[start:len(vals):len(vals)])
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	return ins, nil
}

// countValues sizes the VALUES list that starts at the current token: its
// parenthesized rows, and its values (one per row plus one per comma inside
// a row). It only sizes what the parse fills; input it miscounts is the
// parse's to refuse.
func (p *sqlParser) countValues() (rows, vals int) {
	depth := 0
	for t, i := p.tok, p.next; t.kind != sqlEOF; t, i, _ = sqlLex(p.src, i) {
		if t.kind != sqlPunct {
			continue
		}
		switch t.text {
		case "(":
			if depth == 0 {
				rows++
				vals++
			}
			depth++
		case ")":
			depth--
		case ",":
			if depth == 1 {
				vals++
			}
		default:
			return rows, vals
		}
	}
	return rows, vals
}

func (p *sqlParser) parseLiteral() (relation.Value, error) {
	t := p.tok
	switch t.kind {
	case sqlString:
		p.advance()
		if t.esc {
			return relation.Str(strings.ReplaceAll(t.text, "''", "'")), nil
		}
		return relation.Str(t.text), nil
	case sqlNumber:
		p.advance()
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return relation.Int(i), nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("remotedb: bad number %q", t.text)
		}
		return relation.Float(f), nil
	case sqlWord:
		switch {
		case strings.EqualFold(t.text, "TRUE"):
			p.advance()
			return relation.Bool(true), nil
		case strings.EqualFold(t.text, "FALSE"):
			p.advance()
			return relation.Bool(false), nil
		case strings.EqualFold(t.text, "NULL"):
			p.advance()
			return relation.Null(), nil
		}
	}
	return relation.Value{}, fmt.Errorf("remotedb: expected literal, found %q", t.text)
}

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	p.advance() // SELECT
	sel := &SelectStmt{Limit: -1}
	if p.atWord("DISTINCT") {
		sel.Distinct = true
		p.advance()
	}
	// The items, FROM tables and WHERE conjuncts collect in buffers on the
	// stack; each list is allocated once, at its length.
	var (
		itemBuf  [8]SelectItem
		fromBuf  [4]TableRef
		whereBuf [8]SQLCond
	)
	items := itemBuf[:0]
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	sel.Items = exactly(items)
	if err := p.expectWord("FROM"); err != nil {
		return nil, err
	}
	from := fromBuf[:0]
	for {
		table, err := p.identifier()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: table, Alias: table}
		if p.atWord("AS") {
			p.advance()
			alias, err := p.identifier()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		} else if p.tok.kind == sqlWord && !isSQLKeyword(p.tok.text) {
			alias, _ := p.identifier()
			ref.Alias = alias
		}
		from = append(from, ref)
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	sel.From = exactly(from)
	if p.atWord("WHERE") {
		p.advance()
		where := whereBuf[:0]
		for {
			cond, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			where = append(where, cond)
			if p.atWord("AND") {
				p.advance()
				continue
			}
			break
		}
		sel.Where = exactly(where)
	}
	if p.atWord("GROUP") {
		p.advance()
		if err := p.expectWord("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if p.atPunct(",") {
				p.advance()
				continue
			}
			break
		}
	}
	if p.atWord("ORDER") {
		p.advance()
		if err := p.expectWord("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, c)
			if p.atPunct(",") {
				p.advance()
				continue
			}
			break
		}
	}
	if p.atWord("LIMIT") {
		p.advance()
		t := p.tok
		if t.kind != sqlNumber {
			return nil, fmt.Errorf("remotedb: expected LIMIT count")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("remotedb: bad LIMIT %q", t.text)
		}
		sel.Limit = n
		p.advance()
	}
	return sel, nil
}

// exactly returns a copy of s with no spare capacity, nil when s is empty.
func exactly[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

var sqlKeywords = []string{"SELECT", "FROM", "WHERE", "AND", "GROUP", "ORDER", "BY", "LIMIT", "AS", "DISTINCT", "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "EXPLAIN"}

func isSQLKeyword(w string) bool {
	for _, k := range sqlKeywords {
		if strings.EqualFold(w, k) {
			return true
		}
	}
	return false
}

func (p *sqlParser) parseSelectItem() (SelectItem, error) {
	if p.atPunct("*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if t := p.tok; t.kind == sqlWord && p.peekPunct("(") {
		if op, err := relation.ParseAggOp(strings.ToUpper(t.text)); err == nil {
			p.advance() // agg name
			p.advance() // (
			item := SelectItem{IsAgg: true, Agg: op}
			if p.atPunct("*") {
				if op != relation.AggCount {
					return SelectItem{}, fmt.Errorf("remotedb: only COUNT accepts *")
				}
				item.AggStar = true
				p.advance()
			} else {
				col, err := p.parseColRef()
				if err != nil {
					return SelectItem{}, err
				}
				item.Col = col
			}
			if err := p.expectPunct(")"); err != nil {
				return SelectItem{}, err
			}
			return item, nil
		}
	}
	col, err := p.parseColRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *sqlParser) parseColRef() (ColRef, error) {
	first, err := p.identifier()
	if err != nil {
		return ColRef{}, err
	}
	if p.atPunct(".") {
		p.advance()
		col, err := p.identifier()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Qualifier: first, Column: col}, nil
	}
	return ColRef{Column: first}, nil
}

func (p *sqlParser) parseCond() (SQLCond, error) {
	left, err := p.parseColRef()
	if err != nil {
		return SQLCond{}, err
	}
	t := p.tok
	if t.kind != sqlPunct {
		return SQLCond{}, fmt.Errorf("remotedb: expected comparison operator, found %q", t.text)
	}
	op, err := relation.ParseCmpOp(t.text)
	if err != nil {
		return SQLCond{}, err
	}
	p.advance()
	cond := SQLCond{Left: left, Op: op}
	if rt := p.tok; rt.kind == sqlWord && !strings.EqualFold(rt.text, "TRUE") && !strings.EqualFold(rt.text, "FALSE") && !strings.EqualFold(rt.text, "NULL") {
		col, err := p.parseColRef()
		if err != nil {
			return SQLCond{}, err
		}
		cond.RightIsCol = true
		cond.RightCol = col
		return cond, nil
	}
	v, err := p.parseLiteral()
	if err != nil {
		return SQLCond{}, err
	}
	cond.RightVal = v
	return cond, nil
}
