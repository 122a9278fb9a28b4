// Package parse implements a Prolog reader: a tokenizer and an
// operator-precedence parser producing internal/term values. It supports the
// subset of ISO Prolog syntax needed by the Aquarius-style benchmark suite:
// atoms (alphanumeric, quoted and symbolic), integers (including 0'c
// character codes), variables, lists with '|' tails, curly braces, operators
// with the standard table, comments and clause terminators.
package parse

import (
	"fmt"
	"strings"
	"unicode"

	"symbol/internal/term"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokAtom
	tokVar
	tokInt
	tokPunct // ( ) [ ] { } , |
	tokEnd   // clause-terminating '.'
	tokOpenCT
)

type token struct {
	kind tokKind
	text string
	ival int64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokInt:
		return fmt.Sprintf("%d", t.ival)
	case tokEnd:
		return "."
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	last tokKind // kind of previously emitted token, for '(' adjacency
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c) || c == '_'
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) skipSpace() error {
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
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errf("unterminated block comment")
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token. A '(' immediately following an atom or
// variable (no intervening space) is emitted as tokOpenCT so the parser can
// distinguish f(X) from f (X).
func (l *lexer) next() (token, error) {
	prevEnd := l.pos
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		l.last = tokEOF
		return token{kind: tokEOF, line: l.line}, nil
	}
	c := l.src[l.pos]
	start := l.pos
	mk := func(k tokKind, s string) token {
		l.last = k
		return token{kind: k, text: s, line: l.line}
	}
	switch {
	case c == '(':
		l.pos++
		adjacent := prevEnd == start && (l.last == tokAtom || l.last == tokVar)
		if adjacent {
			return mk(tokOpenCT, "("), nil
		}
		return mk(tokPunct, "("), nil
	case c == ')' || c == '[' || c == ']' || c == '{' || c == '}' || c == ',' || c == '|':
		l.pos++
		return mk(tokPunct, string(c)), nil
	case c == '!' || c == ';':
		l.pos++
		return mk(tokAtom, string(c)), nil
	case c == '\'':
		s, err := l.quoted()
		if err != nil {
			return token{}, err
		}
		return mk(tokAtom, s), nil
	case c == '"':
		return token{}, l.errf("double-quoted strings are not supported; use lists of codes")
	case isDigit(c):
		return l.number()
	case c >= 'a' && c <= 'z':
		for l.pos < len(l.src) && isAlnum(l.src[l.pos]) {
			l.pos++
		}
		return mk(tokAtom, l.src[start:l.pos]), nil
	case c == '_' || c >= 'A' && c <= 'Z':
		for l.pos < len(l.src) && isAlnum(l.src[l.pos]) {
			l.pos++
		}
		return mk(tokVar, l.src[start:l.pos]), nil
	case term.IsSymbolChar(c):
		for l.pos < len(l.src) && term.IsSymbolChar(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		// A solo '.' followed by whitespace/EOF terminates a clause.
		if text == "." {
			return mk(tokEnd, "."), nil
		}
		return mk(tokAtom, text), nil
	default:
		if unicode.IsSpace(rune(c)) {
			l.pos++
			return l.next()
		}
		return token{}, l.errf("unexpected character %q", c)
	}
}

func (l *lexer) quoted() (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '\'':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return "", l.errf("unterminated escape in quoted atom")
			}
			e := l.src[l.pos+1]
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '\'':
				b.WriteByte(e)
			default:
				return "", l.errf("unsupported escape \\%c", e)
			}
			l.pos += 2
		case '\n':
			return "", l.errf("newline in quoted atom")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return "", l.errf("unterminated quoted atom")
}

func (l *lexer) number() (token, error) {
	start := l.pos
	// 0'c character code.
	if l.src[l.pos] == '0' && l.pos+2 < len(l.src) && l.src[l.pos+1] == '\'' {
		c := l.src[l.pos+2]
		l.pos += 3
		l.last = tokInt
		return token{kind: tokInt, ival: int64(c), line: l.line}, nil
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	var v int64
	for _, ch := range l.src[start:l.pos] {
		v = v*10 + int64(ch-'0')
	}
	l.last = tokInt
	return token{kind: tokInt, ival: v, line: l.line}, nil
}
