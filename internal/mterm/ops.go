package mterm

import (
	"fmt"
	"strconv"
	"strings"

	"symbol/internal/term"
	"symbol/internal/word"
)

// glueWriter emits tokens, inserting a space whenever two adjacent tokens
// would otherwise lex as one (symbolic-symbolic or alphanumeric-
// alphanumeric adjacency), so printed terms always read back as written.
type glueWriter struct {
	b    strings.Builder
	last byte
	// afterInfix suppresses the name-( separator once: a '(' directly
	// after an infix operator is unambiguous.
	afterInfix bool
}

func alnumCh(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func (g *glueWriter) WriteString(s string) {
	if s == "" {
		return
	}
	c := s[0]
	nameEnd := term.IsSymbolChar(g.last) || alnumCh(g.last)
	switch {
	case (term.IsSymbolChar(g.last) && term.IsSymbolChar(c)) || (alnumCh(g.last) && alnumCh(c)):
		// Two halves of one token.
		g.b.WriteByte(' ')
	case c == '(' && nameEnd && !g.afterInfix:
		// name( re-reads as functional notation; separate unless the
		// caller used Functional() or the name was an infix operator.
		g.b.WriteByte(' ')
	}
	g.b.WriteString(s)
	g.last = s[len(s)-1]
	g.afterInfix = false
}

// Infix writes an infix operator name; a directly following '(' is
// unambiguous after it.
func (g *glueWriter) Infix(name string) {
	g.WriteString(name)
	g.afterInfix = true
}

// Functional glues a '(' directly to the preceding functor name,
// bypassing the ambiguity separator (intentional functional notation).
func (g *glueWriter) Functional() {
	g.b.WriteByte('(')
	g.last = '('
}

func (g *glueWriter) WriteByte(c byte) error {
	g.WriteString(string(c))
	return nil
}

// FormatOps renders a term the way write/1 does: operator notation for
// the standard operators (term.InfixOps, term.PrefixOps), with parentheses
// only where priorities demand and spaces only where tokens would
// otherwise glue. Unbound variables print as _<address>.
func FormatOps(m Mem, atoms *term.Table, w word.W) (string, error) {
	// An integer or atom prints as its one token: no glue to decide, so no
	// builder to allocate.
	if d, err := Deref(m, w); err == nil {
		switch d.Tag() {
		case word.Int:
			return strconv.FormatInt(d.Int(), 10), nil
		case word.Atom:
			return atoms.Name(uint32(d.Val())), nil
		}
	}
	var b glueWriter
	if err := formatOps(&b, m, atoms, w, 1200, 0); err != nil {
		return "", err
	}
	return b.b.String(), nil
}

// formatOps writes w assuming the context accepts priority up to maxPrec.
func formatOps(b *glueWriter, m Mem, atoms *term.Table, w word.W, maxPrec, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("mterm: term too deep")
	}
	w, err := Deref(m, w)
	if err != nil {
		return err
	}
	switch w.Tag() {
	case word.Ref:
		b.WriteString(fmt.Sprintf("_%d", w.Ptr()))
		return nil
	case word.Int:
		b.WriteString(strconv.FormatInt(w.Int(), 10))
		return nil
	case word.Atom:
		b.WriteString(atoms.Name(uint32(w.Val())))
		return nil
	case word.Lst:
		return formatOpsList(b, m, atoms, w, depth)
	case word.Str:
		f, err := m.Load(w.Ptr())
		if err != nil {
			return err
		}
		name := atoms.Name(f.FunAtom())
		arity := f.FunArity()
		arg := func(i int) (word.W, error) { return m.Load(w.Ptr() + 1 + uint64(i)) }

		if arity == 2 {
			if op, ok := term.InfixOps[name]; ok {
				lMax, rMax := op.Infix()
				open := op.Prio > maxPrec
				if open {
					b.WriteByte('(')
				}
				l, err := arg(0)
				if err != nil {
					return err
				}
				if err := formatOps(b, m, atoms, l, lMax, depth+1); err != nil {
					return err
				}
				b.Infix(name)
				r, err := arg(1)
				if err != nil {
					return err
				}
				if err := formatOps(b, m, atoms, r, rMax, depth+1); err != nil {
					return err
				}
				if open {
					b.WriteByte(')')
				}
				return nil
			}
		}
		if arity == 1 {
			if op, ok := term.PrefixOps[name]; ok {
				sub := op.Operand()
				a0, err := arg(0)
				if err != nil {
					return err
				}
				// Render the operand first: if it begins with a digit, a
				// prefix - or + would re-read as a signed numeric literal,
				// so fall back to functional notation, e.g. -(1^0).
				var scratch glueWriter
				if err := formatOps(&scratch, m, atoms, a0, sub, depth+1); err != nil {
					return err
				}
				operand := scratch.b.String()
				if (name == "-" || name == "+") && operand != "" &&
					operand[0] >= '0' && operand[0] <= '9' {
					b.WriteString(name)
					b.Functional()
					var inner glueWriter
					if err := formatOps(&inner, m, atoms, a0, 999, depth+1); err != nil {
						return err
					}
					b.WriteString(inner.b.String())
					b.WriteByte(')')
					return nil
				}
				open := op.Prio > maxPrec
				if open {
					b.WriteByte('(')
				}
				b.WriteString(name)
				b.WriteString(operand)
				if open {
					b.WriteByte(')')
				}
				return nil
			}
		}
		// Plain functional notation.
		b.WriteString(name)
		b.Functional()
		for i := 0; i < arity; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			x, err := arg(i)
			if err != nil {
				return err
			}
			if err := formatOps(b, m, atoms, x, 999, depth+1); err != nil {
				return err
			}
		}
		b.WriteByte(')')
		return nil
	default:
		b.WriteString(fmt.Sprintf("<%s>", w))
		return nil
	}
}

func formatOpsList(b *glueWriter, m Mem, atoms *term.Table, w word.W, depth int) error {
	b.WriteByte('[')
	for {
		h, err := m.Load(w.Ptr())
		if err != nil {
			return err
		}
		if err := formatOps(b, m, atoms, h, 999, depth+1); err != nil {
			return err
		}
		t, err := m.Load(w.Ptr() + 1)
		if err != nil {
			return err
		}
		t, err = Deref(m, t)
		if err != nil {
			return err
		}
		if t.Tag() == word.Lst {
			b.WriteByte(',')
			w = t
			continue
		}
		if t.Tag() == word.Atom && t.Val() == 0 {
			b.WriteByte(']')
			return nil
		}
		b.WriteByte('|')
		if err := formatOps(b, m, atoms, t, 999, depth+1); err != nil {
			return err
		}
		b.WriteByte(']')
		return nil
	}
}
