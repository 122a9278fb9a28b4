// Package mterm manipulates runtime Prolog terms stored in simulated
// machine memory: dereferencing, write/1-style formatting and standard-
// order comparison. It is shared by the sequential emulator and the VLIW
// simulator so both produce identical observable output.
package mterm

import (
	"fmt"
	"strings"

	"symbol/internal/term"
	"symbol/internal/word"
)

// Mem is the accessor the term walkers use; out-of-range loads must return
// an error.
type Mem interface {
	Load(addr uint64) (word.W, error)
}

// SliceMem adapts a flat memory image.
type SliceMem []word.W

// Load implements Mem.
func (m SliceMem) Load(addr uint64) (word.W, error) {
	if addr >= uint64(len(m)) {
		return 0, fmt.Errorf("mterm: load out of range: %#x", addr)
	}
	return m[addr], nil
}

const maxDepth = 10000

// Deref follows reference chains; an unbound variable dereferences to its
// own self-reference word.
func Deref(m Mem, w word.W) (word.W, error) {
	for i := 0; ; i++ {
		if i > 1<<20 {
			return 0, fmt.Errorf("mterm: reference cycle")
		}
		if w.Tag() != word.Ref {
			return w, nil
		}
		v, err := m.Load(w.Ptr())
		if err != nil {
			return 0, err
		}
		if v == w {
			return w, nil
		}
		w = v
	}
}

// Compare implements the standard order of terms: Var < Int < Atom <
// Compound (compound terms by arity, then functor name, then arguments).
func Compare(m Mem, atoms *term.Table, a, b word.W) (int, error) {
	return compare(m, atoms, a, b, 0)
}

func compare(m Mem, atoms *term.Table, a, b word.W, depth int) (int, error) {
	if depth > maxDepth {
		return 0, fmt.Errorf("mterm: term too deep")
	}
	a, err := Deref(m, a)
	if err != nil {
		return 0, err
	}
	b, err = Deref(m, b)
	if err != nil {
		return 0, err
	}
	rank := func(w word.W) int {
		switch w.Tag() {
		case word.Ref:
			return 0
		case word.Int:
			return 1
		case word.Atom:
			return 2
		default:
			return 3
		}
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return sign(int64(ra - rb)), nil
	}
	switch a.Tag() {
	case word.Ref:
		return sign(int64(a.Ptr()) - int64(b.Ptr())), nil
	case word.Int:
		return sign(a.Int() - b.Int()), nil
	case word.Atom:
		return strings.Compare(atoms.Name(uint32(a.Val())), atoms.Name(uint32(b.Val()))), nil
	}
	fa, na, err := functorOf(m, atoms, a)
	if err != nil {
		return 0, err
	}
	fb, nb, err := functorOf(m, atoms, b)
	if err != nil {
		return 0, err
	}
	if na != nb {
		return sign(int64(na - nb)), nil
	}
	if c := strings.Compare(fa, fb); c != 0 {
		return c, nil
	}
	base := uint64(1)
	if a.Tag() == word.Lst {
		base = 0
	}
	for i := uint64(0); i < uint64(na); i++ {
		x, err := m.Load(a.Ptr() + base + i)
		if err != nil {
			return 0, err
		}
		y, err := m.Load(b.Ptr() + base + i)
		if err != nil {
			return 0, err
		}
		c, err := compare(m, atoms, x, y, depth+1)
		if err != nil || c != 0 {
			return c, err
		}
	}
	return 0, nil
}

func functorOf(m Mem, atoms *term.Table, w word.W) (string, int, error) {
	if w.Tag() == word.Lst {
		return ".", 2, nil
	}
	f, err := m.Load(w.Ptr())
	if err != nil {
		return "", 0, err
	}
	return atoms.Name(f.FunAtom()), f.FunArity(), nil
}

func sign(x int64) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
