package logic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/relation"
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

// token is one lexical token. Its text is a substring of the source, so
// lexing allocates nothing.
type token struct {
	kind tokKind
	text string
	line int
	num  relation.Value // a tokNumber's value
}

// lexer tokenizes the Datalog/CAQL-style surface syntax on demand, one token
// per call to next.
type lexer struct {
	src  string
	pos  int // the offset after the last token lexed
	line int // the line at pos
}

func (l *lexer) errorf(line int, format string, args ...any) error {
	l.pos = len(l.src) // a failed token ends the input
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

// next lexes the token at or after pos. A token that fails to lex reads as
// EOF, with the error beside it.
func (l *lexer) next() (token, error) {
	// Skip whitespace and comments; '#' starts a shell-style comment too.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\n' {
			l.line++
		} else if c == '%' || c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		} else if c != ' ' && c != '\t' && c != '\r' {
			break
		}
		l.pos++
	}
	start, line := l.pos, l.line
	eof := token{kind: tokEOF, line: line}
	if start >= len(l.src) {
		return eof, nil
	}
	switch c := l.src[start]; {
	case c == '"':
		for i := start + 1; i < len(l.src); i++ {
			switch l.src[i] {
			case '\\':
				i++
			case '\n':
				l.line++
			case '"':
				l.pos = i + 1
				return token{kind: tokString, text: l.src[start:l.pos], line: line}, nil
			}
		}
		return eof, l.errorf(line, "unterminated string literal")
	case isDigit(c) || c == '-' && start+1 < len(l.src) && isDigit(l.src[start+1]):
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
		// Only a text without a point or exponent can be an integer; one too
		// large for int64 is read as a float.
		if !strings.ContainsAny(text, ".eE") {
			if i, err := strconv.ParseInt(text, 10, 64); err == nil {
				return token{kind: tokNumber, text: text, line: line, num: relation.Int(i)}, nil
			}
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return eof, l.errorf(line, "bad number %q", text)
		}
		return token{kind: tokNumber, text: text, line: line, num: relation.Float(f)}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if IsVarName(text) {
			return token{kind: tokVar, text: text, line: line}, nil
		}
		return token{kind: tokIdent, text: text, line: line}, nil
	}
	if start+1 < len(l.src) {
		switch two := l.src[start : start+2]; two {
		case ":-", "->", "<=", ">=", "=<", "!=", "<>", "\\=", "==":
			l.pos += 2
			return token{kind: tokPunct, text: two, line: line}, nil
		}
	}
	switch l.src[start] {
	case '(', ')', ',', '.', '[', ']', '/', '&', '?', '^', '<', '>', '=', '|':
		l.pos++
		return token{kind: tokPunct, text: l.src[start:l.pos], line: line}, nil
	}
	// Name the character, or the byte when the text is not UTF-8 there.
	_, n := utf8.DecodeRuneInString(l.src[start:])
	return eof, l.errorf(line, "unexpected character %q", l.src[start:start+n])
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Identifiers are ASCII, as isPlainAtom and IsVarName assume; a quoted
// string takes any text.
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
