package advice

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/caql"
	"repro/internal/logic"
)

// Parse reads an advice bundle in the textual surface syntax:
//
//	view d1(Y^) :- b1("c1", Y) [r1].
//	view d2(X^, Y?) :- b2(X, Z) & b3(Z, "c2", Y) [r2].
//	path (d1(Y^), [d2(X^, Y?), d3(X^, Y?)]^1<0,|Y|>)<1,1>.
//	base b1/2, b2/2, b3/3.
//
// Head arguments of a view carry optional binding annotations: ^ (producer)
// or ? (consumer). Rule identifiers are listed in square brackets (the
// paper's trailing "(R1, R2)" group, written with brackets to keep the
// grammar unambiguous). Path expressions use the paper's notation: sequences
// "( ... )<lo,hi>" with hi an integer, "|Var|", or "*"; alternations
// "[ ... ]" with an optional "^n" selection term.
func Parse(src string) (*Advice, error) {
	a := &Advice{}
	for _, stmt := range splitStatements(src) {
		switch {
		case strings.HasPrefix(stmt, "view "):
			v, err := parseView(strings.TrimSpace(stmt[5:]))
			if err != nil {
				return nil, err
			}
			a.Views = append(a.Views, v)
		case strings.HasPrefix(stmt, "path "):
			if a.Path != nil {
				return nil, fmt.Errorf("advice: multiple path expressions")
			}
			p, err := ParsePath(strings.TrimSpace(stmt[5:]))
			if err != nil {
				return nil, err
			}
			a.Path = p
		case strings.HasPrefix(stmt, "base "):
			refs, err := parseBaseList(strings.TrimSpace(stmt[5:]))
			if err != nil {
				return nil, err
			}
			a.BaseRels = append(a.BaseRels, refs...)
		default:
			return nil, fmt.Errorf("advice: statement must start with view/path/base: %q", stmt)
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// MustParse is Parse panicking on error, for tests and fixed literals.
func MustParse(src string) *Advice {
	a, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return a
}

// splitStatements splits on statement-terminating periods (ignoring periods
// inside quoted strings) and strips comments (% to end of line).
func splitStatements(src string) []string {
	var lines []string
	for _, ln := range strings.Split(src, "\n") {
		if i := strings.IndexByte(ln, '%'); i >= 0 && !strings.Contains(ln[:i], `"`) {
			ln = ln[:i]
		}
		lines = append(lines, ln)
	}
	src = strings.Join(lines, "\n")
	var parts []string
	var cur strings.Builder
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inStr:
			cur.WriteByte(c)
			if c == '\\' && i+1 < len(src) {
				i++
				cur.WriteByte(src[i])
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
			cur.WriteByte(c)
		case c == '.':
			if s := strings.TrimSpace(cur.String()); s != "" {
				parts = append(parts, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		parts = append(parts, s)
	}
	return parts
}

// parseView parses "d2(X^, Y?) :- body [r1,r2]".
func parseView(src string) (*ViewSpec, error) {
	sep := strings.Index(src, ":-")
	if sep < 0 {
		return nil, fmt.Errorf("advice: view without ':-': %q", src)
	}
	headSrc := strings.TrimSpace(src[:sep])
	rest := strings.TrimSpace(src[sep+2:])

	// Optional trailing rule identifiers "[r1, r2]".
	var rules []string
	if i := strings.LastIndexByte(rest, '['); i >= 0 && strings.HasSuffix(rest, "]") {
		for _, r := range strings.Split(rest[i+1:len(rest)-1], ",") {
			if s := strings.TrimSpace(r); s != "" {
				rules = append(rules, s)
			}
		}
		rest = strings.TrimSpace(rest[:i])
	}

	name, args, bindings, err := parseAnnotatedHead(headSrc)
	if err != nil {
		return nil, err
	}
	clean := fmt.Sprintf("%s(%s) :- %s.", name, strings.Join(args, ", "), rest)
	if len(args) == 0 {
		clean = fmt.Sprintf("%s :- %s.", name, rest)
	}
	q, err := caql.Parse(clean)
	if err != nil {
		return nil, fmt.Errorf("advice: view %s: %w", name, err)
	}
	v := &ViewSpec{Query: q, Bindings: bindings, Rules: rules}
	return v, v.Validate()
}

// parseAnnotatedHead splits "d2(X^, Y?, 3)" into name, raw args, bindings.
func parseAnnotatedHead(src string) (string, []string, []Binding, error) {
	open := strings.IndexByte(src, '(')
	if open < 0 {
		return strings.TrimSpace(src), nil, nil, nil
	}
	if !strings.HasSuffix(src, ")") {
		return "", nil, nil, fmt.Errorf("advice: malformed view head %q", src)
	}
	name := strings.TrimSpace(src[:open])
	inner := src[open+1 : len(src)-1]
	var args []string
	var bindings []Binding
	depth := 0
	inStr := false
	start := 0
	flush := func(end int) error {
		raw := strings.TrimSpace(inner[start:end])
		if raw == "" {
			return fmt.Errorf("advice: empty argument in view head %q", src)
		}
		b := BindNone
		switch raw[len(raw)-1] {
		case '^':
			b = BindProducer
			raw = strings.TrimSpace(raw[:len(raw)-1])
		case '?':
			b = BindConsumer
			raw = strings.TrimSpace(raw[:len(raw)-1])
		}
		args = append(args, raw)
		bindings = append(bindings, b)
		return nil
	}
	for i := 0; i < len(inner); i++ {
		c := inner[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			if err := flush(i); err != nil {
				return "", nil, nil, err
			}
			start = i + 1
		}
	}
	if strings.TrimSpace(inner) != "" {
		if err := flush(len(inner)); err != nil {
			return "", nil, nil, err
		}
	}
	return name, args, bindings, nil
}

func parseBaseList(src string) ([]logic.PredRef, error) {
	var out []logic.PredRef
	for _, part := range strings.Split(src, ",") {
		part = strings.TrimSpace(part)
		slash := strings.LastIndexByte(part, '/')
		if slash < 0 {
			return nil, fmt.Errorf("advice: base entry %q must be name/arity", part)
		}
		arity, err := strconv.Atoi(part[slash+1:])
		if err != nil || arity < 0 {
			return nil, fmt.Errorf("advice: bad arity in %q", part)
		}
		name := strings.TrimSpace(part[:slash])
		if a, err := logic.ParseAtom(name); err != nil || a.Pred != name || len(a.Args) > 0 {
			return nil, fmt.Errorf("advice: base entry %q does not name a predicate", part)
		}
		out = append(out, logic.PredRef{Name: name, Arity: arity})
	}
	return out, nil
}

// ParsePath parses a path expression.
func ParsePath(src string) (Expr, error) {
	p := &pathParser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("advice: trailing input in path expression at %q", p.src[p.pos:])
	}
	return e, nil
}

type pathParser struct {
	src string
	pos int
}

func (p *pathParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *pathParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *pathParser) expect(c byte) error {
	if p.peek() != c {
		return fmt.Errorf("advice: expected %q at %q", string(c), p.src[p.pos:])
	}
	p.pos++
	return nil
}

func (p *pathParser) parseExpr() (Expr, error) {
	switch p.peek() {
	case '(':
		return p.parseSequence()
	case '[':
		return p.parseAlternation()
	default:
		return p.parsePattern()
	}
}

func (p *pathParser) parseList(close byte) ([]Expr, error) {
	var elems []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(close); err != nil {
		return nil, err
	}
	return elems, nil
}

func (p *pathParser) parseSequence() (Expr, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	elems, err := p.parseList(')')
	if err != nil {
		return nil, err
	}
	seq := &Sequence{Elems: elems, Lo: 1, Hi: Bound{N: 1}}
	if p.peek() == '<' {
		p.pos++
		lo, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		hi, err := p.parseBound()
		if err != nil {
			return nil, err
		}
		if err := p.expect('>'); err != nil {
			return nil, err
		}
		seq.Lo, seq.Hi = lo, hi
	}
	return seq, nil
}

func (p *pathParser) parseAlternation() (Expr, error) {
	if err := p.expect('['); err != nil {
		return nil, err
	}
	elems, err := p.parseList(']')
	if err != nil {
		return nil, err
	}
	alt := &Alternation{Elems: elems}
	if p.peek() == '^' {
		p.pos++
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		alt.Select = n
	}
	return alt, nil
}

func (p *pathParser) parsePattern() (Expr, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("advice: expected pattern name at %q", p.src[start:])
	}
	pat := &Pattern{Name: p.src[start:p.pos]}
	if p.peek() != '(' {
		return pat, nil
	}
	p.pos++
	for {
		p.skipSpace()
		as := p.pos
		for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == as {
			return nil, fmt.Errorf("advice: expected pattern argument at %q", p.src[as:])
		}
		arg := PatArg{Name: p.src[as:p.pos]}
		switch p.peek() {
		case '^':
			arg.Binding = BindProducer
			p.pos++
		case '?':
			arg.Binding = BindConsumer
			p.pos++
		}
		pat.Args = append(pat.Args, arg)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pat, nil
}

func (p *pathParser) parseInt() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("advice: expected integer at %q", p.src[start:])
	}
	return strconv.Atoi(p.src[start:p.pos])
}

func (p *pathParser) parseBound() (Bound, error) {
	switch p.peek() {
	case '*':
		p.pos++
		return Bound{Inf: true}, nil
	case '|':
		p.pos++
		p.skipSpace()
		start := p.pos
		for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return Bound{}, fmt.Errorf("advice: expected variable in |...| bound")
		}
		sym := p.src[start:p.pos]
		if err := p.expect('|'); err != nil {
			return Bound{}, err
		}
		return Bound{Sym: sym}, nil
	default:
		n, err := p.parseInt()
		if err != nil {
			return Bound{}, err
		}
		return Bound{N: n}, nil
	}
}

func isNameChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
