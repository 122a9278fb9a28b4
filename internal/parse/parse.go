package parse

import (
	"fmt"

	"symbol/internal/term"
)

// Parser reads a sequence of Prolog clauses from source text.
type Parser struct {
	lex  *lexer
	tok  token
	vars map[string]*term.Var // variable scope of the current clause
}

// New returns a parser over src with the standard operator table.
func New(src string) (*Parser, error) {
	p := &Parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

// ReadClause reads the next clause terminated by '.'; it returns nil, nil at
// end of input. Variables are scoped per clause.
func (p *Parser) ReadClause() (term.Term, error) {
	if p.tok.kind == tokEOF {
		return nil, nil
	}
	p.vars = map[string]*term.Var{}
	t, err := p.parse(1200)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEnd {
		return nil, p.errf("expected '.' after clause, found %q", p.tok.String())
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return t, nil
}

// All reads every clause in src.
func All(src string) ([]term.Term, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	var out []term.Term
	for {
		t, err := p.ReadClause()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// parse parses a term with maximum priority maxPrec, then folds infix
// operators (operator-precedence climbing).
func (p *Parser) parse(maxPrec int) (term.Term, error) {
	left, leftPrec, err := p.parsePrimary(maxPrec)
	if err != nil {
		return nil, err
	}
	return p.parseInfix(left, leftPrec, maxPrec)
}

func (p *Parser) parseInfix(left term.Term, leftPrec, maxPrec int) (term.Term, error) {
	for {
		var name string
		switch {
		case p.tok.kind == tokAtom:
			name = p.tok.text
		case p.tok.kind == tokPunct && (p.tok.text == "," || p.tok.text == "|"):
			name = p.tok.text
			if name == "|" {
				name = ";" // X | Y as disjunction inside arguments is rare; treat as ';'
			}
		default:
			return left, nil
		}
		def, ok := term.InfixOps[name]
		if !ok || def.Prio > maxPrec {
			return left, nil
		}
		maxLeft, maxRight := def.Infix()
		if leftPrec > maxLeft {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parse(maxRight)
		if err != nil {
			return nil, err
		}
		left = &term.Compound{Functor: name, Args: []term.Term{left, right}}
		leftPrec = def.Prio
	}
}

// parsePrimary parses one operand: an atom, number, variable, list, braces,
// parenthesized term, functional notation compound, or prefix-operator
// application. It returns the term and its priority (0 for plain terms).
func (p *Parser) parsePrimary(maxPrec int) (term.Term, int, error) {
	tok := p.tok
	switch tok.kind {
	case tokEOF:
		return nil, 0, p.errf("unexpected end of input")
	case tokInt:
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		return term.Int(tok.ival), 0, nil
	case tokVar:
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		if tok.text == "_" {
			return &term.Var{Name: "_"}, 0, nil
		}
		v, ok := p.vars[tok.text]
		if !ok {
			v = &term.Var{Name: tok.text}
			p.vars[tok.text] = v
		}
		return v, 0, nil
	case tokPunct, tokOpenCT:
		switch tok.text {
		case "(":
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			t, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, 0, err
			}
			return t, 0, nil
		case "[":
			t, err := p.parseList()
			return t, 0, err
		case "{":
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			if p.tok.kind == tokPunct && p.tok.text == "}" {
				if err := p.advance(); err != nil {
					return nil, 0, err
				}
				return term.Atom("{}"), 0, nil
			}
			t, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, 0, err
			}
			return &term.Compound{Functor: "{}", Args: []term.Term{t}}, 0, nil
		}
		return nil, 0, p.errf("unexpected %q", tok.text)
	case tokAtom:
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		// Functional notation: atom immediately followed by '('.
		if p.tok.kind == tokOpenCT {
			args, err := p.parseArgs()
			if err != nil {
				return nil, 0, err
			}
			return &term.Compound{Functor: tok.text, Args: args}, 0, nil
		}
		// Negative number literal.
		if tok.text == "-" && p.tok.kind == tokInt {
			v := p.tok.ival
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			return term.Int(-v), 0, nil
		}
		// Prefix operator application.
		if def, ok := term.PrefixOps[tok.text]; ok && def.Prio <= maxPrec && p.startsTerm() {
			arg, err := p.parse(def.Operand())
			if err != nil {
				return nil, 0, err
			}
			return &term.Compound{Functor: tok.text, Args: []term.Term{arg}}, def.Prio, nil
		}
		return term.Atom(tok.text), 0, nil
	case tokEnd:
		return nil, 0, p.errf("unexpected '.'")
	}
	return nil, 0, p.errf("unexpected token %q", tok.String())
}

// startsTerm reports whether the current token can begin a term, used to
// decide whether a prefix operator is applied or stands alone as an atom.
func (p *Parser) startsTerm() bool {
	switch p.tok.kind {
	case tokInt, tokVar, tokOpenCT:
		return true
	case tokAtom:
		return true
	case tokPunct:
		return p.tok.text == "(" || p.tok.text == "[" || p.tok.text == "{"
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.String())
	}
	return p.advance()
}

func (p *Parser) parseArgs() ([]term.Term, error) {
	if err := p.advance(); err != nil { // consume '('
		return nil, err
	}
	var args []term.Term
	for {
		a, err := p.parse(999)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}

func (p *Parser) parseList() (term.Term, error) {
	if err := p.advance(); err != nil { // consume '['
		return nil, err
	}
	if p.tok.kind == tokPunct && p.tok.text == "]" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return term.NilAtom, nil
	}
	var items []term.Term
	var tail term.Term = term.NilAtom
	for {
		a, err := p.parse(999)
		if err != nil {
			return nil, err
		}
		items = append(items, a)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if p.tok.kind == tokPunct && p.tok.text == "|" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			tail, err = p.parse(999)
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		break
	}
	t := tail
	for i := len(items) - 1; i >= 0; i-- {
		t = term.Cons(items[i], t)
	}
	return t, nil
}
