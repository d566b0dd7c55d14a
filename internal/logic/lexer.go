package logic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds of the rule/query surface syntax.
type tokKind int

const (
	tokEOF    tokKind = iota
	tokIdent          // lowercase identifier (predicate or symbolic constant)
	tokVar            // uppercase/underscore identifier (variable)
	tokNumber         // integer or float literal
	tokString         // quoted string literal
	tokPunct          // punctuation or operator: ( ) , . :- -> [ ] / & ? ^ and comparisons
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset, for error messages
	line int
}

// lexer tokenizes the Datalog/CAQL-style surface syntax.
type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex tokenizes src fully, returning the token stream.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '%':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '#': // shell-style comments accepted too
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto body
		}
	}
body:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos, line: l.line}, nil
	}
	start, line := l.pos, l.line
	c := l.src[l.pos]
	switch {
	case c == '"':
		l.pos++
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\\' {
				l.pos += 2
				continue
			}
			if l.src[l.pos] == '"' {
				l.pos++
				return token{kind: tokString, text: l.src[start:l.pos], pos: start, line: line}, nil
			}
			if l.src[l.pos] == '\n' {
				l.line++
			}
			l.pos++
		}
		return token{}, l.errorf("unterminated string literal")
	case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
		// Digits, points before a digit, and exponents, signed or not: every
		// float Value.String renders (1e+19 among them) lexes back.
		l.pos++
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			exp := d == 'e' || d == 'E'
			point := d == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])
			sign := (d == '+' || d == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E')
			if !isDigit(d) && !exp && !point && !sign {
				break
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		if _, err := strconv.ParseFloat(text, 64); err != nil {
			return token{}, l.errorf("bad number %q", text)
		}
		return token{kind: tokNumber, text: text, pos: start, line: line}, nil
	case isIdentStart(rune(c)):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if IsVarName(text) {
			return token{kind: tokVar, text: text, pos: start, line: line}, nil
		}
		return token{kind: tokIdent, text: text, pos: start, line: line}, nil
	default:
		// Multi-char punctuation first.
		rest := l.src[l.pos:]
		for _, p := range []string{":-", "->", "<=", ">=", "=<", "!=", "<>", "\\=", "=="} {
			if strings.HasPrefix(rest, p) {
				l.pos += len(p)
				return token{kind: tokPunct, text: p, pos: start, line: line}, nil
			}
		}
		switch c {
		case '(', ')', ',', '.', '[', ']', '/', '&', '?', '^', '<', '>', '=', '|':
			l.pos++
			return token{kind: tokPunct, text: string(c), pos: start, line: line}, nil
		}
		return token{}, l.errorf("unexpected character %q", string(c))
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
