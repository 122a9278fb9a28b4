// Package term provides the compile-time representation of Prolog terms:
// atoms, integers, variables and compound terms, plus the interned atom
// table shared between the compiler and the simulated machine.
package term

import (
	"fmt"
	"sort"
	"strings"
)

// Term is a parsed Prolog term. The concrete types are Atom, Int, *Var and
// *Compound.
type Term interface {
	isTerm()
	String() string
}

// Atom is a Prolog atom such as foo, [], '+' or 'hello world'.
type Atom string

// Int is a Prolog integer.
type Int int64

// Var is a Prolog variable. Identity is pointer identity: two occurrences of
// the same source variable share one *Var.
type Var struct {
	Name string
}

// Compound is a compound term Functor(Args...). Lists are Compound{".", [H,T]}.
type Compound struct {
	Functor string
	Args    []Term
}

func (Atom) isTerm()      {}
func (Int) isTerm()       {}
func (*Var) isTerm()      {}
func (*Compound) isTerm() {}

// Common atoms.
const (
	NilAtom  = Atom("[]")
	ConsName = "."
	TrueAtom = Atom("true")
)

// Cons builds a list cell '.'(head, tail).
func Cons(head, tail Term) *Compound {
	return &Compound{Functor: ConsName, Args: []Term{head, tail}}
}

// FromList builds a proper Prolog list from a Go slice.
func FromList(items []Term) Term {
	var t Term = NilAtom
	for i := len(items) - 1; i >= 0; i-- {
		t = Cons(items[i], t)
	}
	return t
}

// Comma builds a conjunction ','(a, b).
func Comma(a, b Term) *Compound {
	return &Compound{Functor: ",", Args: []Term{a, b}}
}

// Indicator names a predicate as name/arity.
type Indicator struct {
	Name  string
	Arity int
}

func (pi Indicator) String() string { return fmt.Sprintf("%s/%d", pi.Name, pi.Arity) }

// IndicatorOf returns the predicate indicator of a callable term.
func IndicatorOf(t Term) (Indicator, bool) {
	switch x := t.(type) {
	case Atom:
		return Indicator{Name: string(x)}, true
	case *Compound:
		return Indicator{Name: x.Functor, Arity: len(x.Args)}, true
	}
	return Indicator{}, false
}

func (a Atom) String() string { return quoteAtom(string(a)) }
func (i Int) String() string  { return fmt.Sprintf("%d", int64(i)) }
func (v *Var) String() string {
	if v.Name == "" {
		return fmt.Sprintf("_G%p", v)
	}
	return v.Name
}

func (c *Compound) String() string {
	if c.Functor == ConsName && len(c.Args) == 2 {
		return listString(c)
	}
	var b strings.Builder
	b.WriteString(quoteAtom(c.Functor))
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

func listString(c *Compound) string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(c.Args[0].String())
	t := c.Args[1]
	for {
		switch x := t.(type) {
		case *Compound:
			if x.Functor == ConsName && len(x.Args) == 2 {
				b.WriteByte(',')
				b.WriteString(x.Args[0].String())
				t = x.Args[1]
				continue
			}
		case Atom:
			if x == NilAtom {
				b.WriteByte(']')
				return b.String()
			}
		}
		b.WriteByte('|')
		b.WriteString(t.String())
		b.WriteByte(']')
		return b.String()
	}
}

func isAlnumAtom(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c < 'a' || c > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

func isSymbolicAtom(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !IsSymbolChar(s[i]) {
			return false
		}
	}
	return true
}

func quoteAtom(s string) string {
	switch {
	case isAlnumAtom(s), isSymbolicAtom(s),
		s == "[]", s == "{}", s == "!", s == ";", s == ",", s == "|":
		return s
	default:
		return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
	}
}

// Equal reports structural equality; variables compare by identity.
func Equal(a, b Term) bool {
	switch x := a.(type) {
	case Atom:
		y, ok := b.(Atom)
		return ok && x == y
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case *Var:
		return a == b
	case *Compound:
		y, ok := b.(*Compound)
		if !ok || x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Vars appends to dst all distinct variables of t in first-occurrence order.
func Vars(t Term, dst []*Var) []*Var {
	switch x := t.(type) {
	case *Var:
		for _, v := range dst {
			if v == x {
				return dst
			}
		}
		return append(dst, x)
	case *Compound:
		for _, a := range x.Args {
			dst = Vars(a, dst)
		}
	}
	return dst
}

// Table interns atom names to dense indices used by the simulated machine.
// Index 0 is always '[]' so the nil list has a stable runtime encoding.
type Table struct {
	names []string
	index map[string]uint32
}

// NewTable returns a table pre-seeded with the atoms the runtime relies on.
func NewTable() *Table {
	t := &Table{index: map[string]uint32{}}
	t.Intern("[]") // index 0
	t.Intern(".")  // index 1
	return t
}

// Intern returns the index of name, adding it if needed.
func (t *Table) Intern(name string) uint32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	i := uint32(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// Name returns the string for an atom index.
func (t *Table) Name(i uint32) string {
	if int(i) < len(t.names) {
		return t.names[i]
	}
	return fmt.Sprintf("atom#%d", i)
}

// Lookup returns the index for name without interning.
func (t *Table) Lookup(name string) (uint32, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Len returns the number of interned atoms.
func (t *Table) Len() int { return len(t.names) }

// Names returns the interned names sorted alphabetically (for listings).
func (t *Table) Names() []string {
	out := append([]string(nil), t.names...)
	sort.Strings(out)
	return out
}

// Ordered returns the interned names in intern order, so index i of the
// result is the atom with runtime index i. Serialization must use this
// (not Names, which sorts): atom indices are baked into compiled code as
// immediates, so a rebuilt table has to assign identical indices.
func (t *Table) Ordered() []string {
	return append([]string(nil), t.names...)
}
