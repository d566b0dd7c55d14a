package logic

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Parser for the knowledge-base surface syntax:
//
//	% rules and facts
//	k1(X, Y) :- b1(c1, Y), k2(X, Y).
//	likes(tom, wine).
//
//	% directives
//	:- base(b1/2).              declare a base (database) relation
//	:- mutex(k3/1, k4/1).       mutual-exclusion SOA
//	:- fd(emp/3, [1] -> [2]).   functional-dependency SOA (1-based positions)
//	:- recursive(anc/2).        recursive-structure SOA: checked, no effect
//
// Variables begin with an uppercase letter or underscore; bare lowercase
// identifiers are symbolic (string) constants; numbers and quoted strings are
// typed constants. Comparison atoms are written infix: X < 5, X != Y.

type parser struct {
	lexer
	tok token // the current token
	err error // the first lexing failure; the token that failed reads as EOF
}

func newParser(src string) parser {
	p := parser{lexer: lexer{src: src, line: 1}}
	p.advance()
	return p
}

func (p *parser) advance() {
	t, err := p.next()
	if err != nil && p.err == nil {
		p.err = err
	}
	p.tok = t
}

func (p *parser) at(text string) bool {
	return p.tok.kind == tokPunct && p.tok.text == text
}

func (p *parser) expect(text string) error {
	if !p.at(text) {
		return fmt.Errorf("line %d: expected %q, found %q", p.tok.line, text, p.tok.text)
	}
	p.advance()
	return nil
}

// end is the error of a parse that stopped with err: the first lexing
// failure, since the parser met it as EOF; else err; else trailing input
// when the parse stopped short of EOF.
func (p *parser) end(err error, what string) error {
	if p.err != nil {
		return p.err
	}
	if err == nil && p.tok.kind != tokEOF {
		return fmt.Errorf("line %d: trailing input after %s", p.tok.line, what)
	}
	return err
}

// ParseProgram parses a whole knowledge-base source into a KB. Each clause
// is parsed into scratch arrays reused from clause to clause, and the KB
// keeps a copy of exactly its size.
func ParseProgram(src string) (*KB, error) {
	p := newParser(src)
	kb := NewKB()
	var atoms []Atom
	var terms []Term
	for p.tok.kind != tokEOF {
		if p.at(":-") {
			p.advance()
			if err := p.parseDirective(kb); err != nil {
				return nil, p.end(err, "")
			}
			continue
		}
		var c Clause
		var err error
		c, atoms, terms, err = p.clause(atoms[:0], terms[:0])
		if err == nil {
			err = p.expect(".")
		}
		if err == nil {
			if err = kb.AddClause(c.owned()); err != nil {
				err = fmt.Errorf("line %d: %w", p.tok.line, err)
			}
		}
		if err != nil {
			return nil, p.end(err, "")
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return kb, nil
}

// owned is c with its body and arguments copied into arrays of exactly their
// size, its own.
func (c Clause) owned() Clause {
	n := len(c.Head.Args)
	for _, a := range c.Body {
		n += len(a.Args)
	}
	terms := append(make([]Term, 0, n), c.Head.Args...)
	c.Head.Args = window(terms, 0)
	if c.Body != nil {
		body := make([]Atom, len(c.Body))
		for i, a := range c.Body {
			start := len(terms)
			terms = append(terms, a.Args...)
			body[i] = Atom{Pred: a.Pred, Args: window(terms, start)}
		}
		c.Body = body
	}
	return c
}

// ParseAtom parses a single atom (e.g. an AI query) from src; a trailing
// period or question mark is permitted.
func ParseAtom(src string) (Atom, error) {
	src = strings.TrimSpace(src)
	src = strings.TrimSuffix(src, "?")
	p := newParser(src)
	// The arguments are parsed onto the stack, and the atom gets a copy of
	// exactly their size: one allocation for an atom of up to len(buf).
	var buf [8]Term
	pred, start, terms, err := p.atomArgs(buf[:0])
	if err == nil && p.at(".") {
		p.advance()
	}
	if err = p.end(err, "atom"); err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: pred}
	if args := terms[start:]; len(args) > 0 {
		a.Args = make([]Term, len(args))
		copy(a.Args, args)
	}
	return a, nil
}

// A ClauseReader parses clauses one after another from one text, as CAQL
// writes them: each ends with a period, except that the last one's may be
// left off.
type ClauseReader struct{ p parser }

// NewClauseReader returns a reader at the start of src.
func NewClauseReader(src string) ClauseReader { return ClauseReader{p: newParser(src)} }

// More reports whether anything but whitespace and comments is left.
func (r *ClauseReader) More() bool { return r.p.tok.kind != tokEOF || r.p.err != nil }

// Next parses the next clause. Its body atoms are appended to atoms and its
// arguments to terms: Body and every Args are capacity-capped windows of
// them, so a caller can carve a clause from arrays it owns, and appending to
// one copies it rather than overwrite its neighbour.
func (r *ClauseReader) Next(atoms []Atom, terms []Term) (Clause, error) {
	p := &r.p
	c, _, _, err := p.clause(atoms, terms)
	if err == nil && p.tok.kind != tokEOF {
		err = p.expect(".")
	}
	if p.err != nil {
		err = p.err
	}
	if err != nil {
		return Clause{}, err
	}
	return c, nil
}

// clause parses a clause up to its period. Body atoms are appended to atoms
// and arguments to terms, and Body and each Args is a window of them; the
// grown slices are returned for the next clause.
func (p *parser) clause(atoms []Atom, terms []Term) (Clause, []Atom, []Term, error) {
	head, terms, err := p.atom(terms)
	if err != nil {
		return Clause{}, atoms, terms, err
	}
	if head.IsComparison() {
		return Clause{}, atoms, terms, fmt.Errorf("line %d: clause head cannot be a comparison", p.tok.line)
	}
	c := Clause{Head: head}
	if p.at(":-") {
		p.advance()
		start := len(atoms)
		for {
			var a Atom
			if a, terms, err = p.atom(terms); err != nil {
				return Clause{}, atoms, terms, err
			}
			atoms = append(atoms, a)
			if !p.at(",") && !p.at("&") {
				break
			}
			p.advance()
		}
		c.Body = window(atoms, start)
	}
	return c, atoms, terms, nil
}

// atom parses either pred(args...), possibly followed by an infix
// comparison, or term cmp term. Its arguments are appended to terms, and
// Args is their window.
func (p *parser) atom(terms []Term) (Atom, []Term, error) {
	pred, start, terms, err := p.atomArgs(terms)
	if err != nil {
		return Atom{}, terms, err
	}
	return Atom{Pred: pred, Args: window(terms, start)}, terms, nil
}

// atomArgs parses an atom as atom does, returning its predicate and the
// offset in terms where its arguments start. It returns no Atom so that a
// caller's stack buffer does not escape with the predicate: escape analysis
// sees an Atom's fields as one.
func (p *parser) atomArgs(terms []Term) (pred string, start int, _ []Term, _ error) {
	start = len(terms)
	// An atom starting with a variable/number/string must be a comparison.
	t := p.tok
	if t.kind == tokVar || t.kind == tokNumber || t.kind == tokString {
		left, err := p.term()
		if err != nil {
			return "", start, terms, err
		}
		return p.comparison(left, terms)
	}
	if t.kind != tokIdent {
		return "", start, terms, fmt.Errorf("line %d: expected atom, found %q", t.line, t.text)
	}
	p.advance()
	if !p.at("(") {
		// Could be a bare constant followed by a comparison (e.g. a != b),
		// or a 0-ary predicate.
		if p.tok.kind == tokPunct && isCmpPunct(p.tok.text) {
			return p.comparison(CStr(t.text), terms)
		}
		return t.text, start, terms, nil
	}
	p.advance()
	if !p.at(")") {
		for {
			arg, err := p.term()
			if err != nil {
				return "", start, terms, err
			}
			terms = append(terms, arg)
			if !p.at(",") {
				break
			}
			p.advance()
		}
	}
	return t.text, start, terms, p.expect(")")
}

// comparison parses the operator and right operand of a comparison whose
// left operand was left, and appends both operands to terms.
func (p *parser) comparison(left Term, terms []Term) (pred string, start int, _ []Term, _ error) {
	start = len(terms)
	t := p.tok
	if t.kind != tokPunct || !isCmpPunct(t.text) {
		return "", start, terms, fmt.Errorf("line %d: expected comparison operator, found %q", t.line, t.text)
	}
	p.advance()
	right, err := p.term()
	if err != nil {
		return "", start, terms, err
	}
	// Normalize operator spelling through relation.ParseCmpOp.
	if pred, err = parseCmp(t.text); err != nil {
		return "", start, terms, fmt.Errorf("line %d: %w", t.line, err)
	}
	return pred, start, append(terms, left, right), nil
}

// window is buf[start:] with its capacity capped, so that appending to it
// copies; nil when empty, as a 0-ary atom's Args and a fact's Body are.
func window[T any](buf []T, start int) []T {
	if len(buf) == start {
		return nil
	}
	return buf[start:len(buf):len(buf)]
}

func isCmpPunct(s string) bool {
	switch s {
	case "=", "==", "!=", "<>", "\\=", "<", "<=", "=<", ">", ">=":
		return true
	}
	return false
}

func parseCmp(s string) (string, error) {
	op, err := relation.ParseCmpOp(s)
	if err != nil {
		return "", err
	}
	return op.String(), nil
}

func (p *parser) term() (Term, error) {
	t := p.tok
	switch t.kind {
	case tokVar:
		p.advance()
		return V(t.text), nil
	case tokIdent:
		p.advance()
		return CStr(t.text), nil
	case tokNumber:
		p.advance()
		return C(t.num), nil
	case tokString:
		p.advance()
		u, err := strconv.Unquote(t.text)
		if err != nil {
			return Term{}, fmt.Errorf("line %d: bad string %q", t.line, t.text)
		}
		return CStr(u), nil
	default:
		return Term{}, fmt.Errorf("line %d: expected term, found %q", t.line, t.text)
	}
}

func (p *parser) parseDirective(kb *KB) error {
	t := p.tok
	if t.kind != tokIdent {
		return fmt.Errorf("line %d: expected directive name, found %q", t.line, t.text)
	}
	name := t.text
	p.advance()
	if err := p.expect("("); err != nil {
		return err
	}
	switch name {
	case "base":
		ref, err := p.parsePredRef()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		if err := kb.DeclareBase(ref); err != nil {
			return err
		}
	case "mutex":
		a, err := p.parsePredRef()
		if err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		b, err := p.parsePredRef()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		kb.AddMutex(a, b)
	case "recursive":
		// Checked, and nothing more: every derived call is tabled.
		if _, err := p.parsePredRef(); err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
	case "fd":
		ref, err := p.parsePredRef()
		if err != nil {
			return err
		}
		if err := p.expect(","); err != nil {
			return err
		}
		from, err := p.parsePosList()
		if err != nil {
			return err
		}
		if err := p.expect("->"); err != nil {
			return err
		}
		to, err := p.parsePosList()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		kb.AddFD(FDSOA{Pred: ref, From: from, To: to})
	default:
		return fmt.Errorf("line %d: unknown directive %q", t.line, name)
	}
	return p.expect(".")
}

func (p *parser) parsePredRef() (PredRef, error) {
	t := p.tok
	if t.kind != tokIdent {
		return PredRef{}, fmt.Errorf("line %d: expected predicate name, found %q", t.line, t.text)
	}
	name := t.text
	p.advance()
	if err := p.expect("/"); err != nil {
		return PredRef{}, err
	}
	n := p.tok
	if n.kind != tokNumber {
		return PredRef{}, fmt.Errorf("line %d: expected arity, found %q", n.line, n.text)
	}
	arity, err := strconv.Atoi(n.text)
	if err != nil || arity < 0 {
		return PredRef{}, fmt.Errorf("line %d: bad arity %q", n.line, n.text)
	}
	p.advance()
	return PredRef{Name: name, Arity: arity}, nil
}

// parsePosList parses "[1,2,...]" of 1-based positions into 0-based ints.
func (p *parser) parsePosList() ([]int, error) {
	if err := p.expect("["); err != nil {
		return nil, err
	}
	var out []int
	for !p.at("]") {
		t := p.tok
		if t.kind != tokNumber {
			return nil, fmt.Errorf("line %d: expected position, found %q", t.line, t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("line %d: bad position %q (positions are 1-based)", t.line, t.text)
		}
		out = append(out, n-1)
		p.advance()
		if p.at(",") {
			p.advance()
		}
	}
	p.advance() // ]
	return out, nil
}
