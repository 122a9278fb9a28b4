package mterm

import (
	"testing"

	"symbol/internal/term"
	"symbol/internal/word"
)

// heap is a tiny builder for runtime term images.
type heap struct {
	mem  []word.W
	next uint64
}

func newHeap() *heap { return &heap{mem: make([]word.W, 4096), next: 16} }

func (h *heap) push(ws ...word.W) uint64 {
	at := h.next
	for i, w := range ws {
		h.mem[at+uint64(i)] = w
	}
	h.next += uint64(len(ws))
	return at
}

func (h *heap) unbound() word.W {
	at := h.push(0)
	h.mem[at] = word.MakeRef(at)
	return word.MakeRef(at)
}

func (h *heap) list(items ...word.W) word.W {
	tail := word.W(word.Make(word.Atom, 0)) // []
	for i := len(items) - 1; i >= 0; i-- {
		at := h.push(items[i], tail)
		tail = word.Make(word.Lst, at)
	}
	return tail
}

func atoms() *term.Table {
	t := term.NewTable()
	t.Intern("foo")
	t.Intern("bar")
	t.Intern("f")
	return t
}

// TestFormatBasics covers the one-token terms, which FormatOps prints
// without building a writer, and a proper list.
func TestFormatBasics(t *testing.T) {
	h := newHeap()
	at := atoms()
	fooIdx, _ := at.Lookup("foo")

	cases := []struct {
		w    word.W
		want string
	}{
		{word.MakeInt(42), "42"},
		{word.MakeInt(-3), "-3"},
		{word.Make(word.Atom, uint64(fooIdx)), "foo"},
		{word.Make(word.Atom, 0), "[]"},
		{h.list(word.MakeInt(1), word.MakeInt(2)), "[1,2]"},
	}
	for _, c := range cases {
		got, err := FormatOps(SliceMem(h.mem), at, c.w)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestFormatStructAndPartialList(t *testing.T) {
	h := newHeap()
	at := atoms()
	fIdx, _ := at.Lookup("f")

	sAt := h.push(word.MakeFun(fIdx, 2), word.MakeInt(1), word.MakeInt(2))
	s := word.Make(word.Str, sAt)
	got, err := FormatOps(SliceMem(h.mem), at, s)
	if err != nil {
		t.Fatal(err)
	}
	if got != "f(1,2)" {
		t.Errorf("got %q", got)
	}

	v := h.unbound()
	cAt := h.push(word.MakeInt(9), v)
	got, err = FormatOps(SliceMem(h.mem), at, word.Make(word.Lst, cAt))
	if err != nil {
		t.Fatal(err)
	}
	want := "[9|_" // unbound tail prints as _<addr>
	if len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("got %q", got)
	}
}

func TestDerefChain(t *testing.T) {
	h := newHeap()
	// a → b → 7
	bAt := h.push(word.MakeInt(7))
	aAt := h.push(word.MakeRef(bAt))
	got, err := Deref(SliceMem(h.mem), word.MakeRef(aAt))
	if err != nil {
		t.Fatal(err)
	}
	if got != word.MakeInt(7) {
		t.Errorf("got %v", got)
	}
	// unbound cell dereferences to itself
	u := h.unbound()
	got, err = Deref(SliceMem(h.mem), u)
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Errorf("unbound: got %v want %v", got, u)
	}
}

func TestCompareStandardOrder(t *testing.T) {
	h := newHeap()
	at := atoms()
	fooIdx, _ := at.Lookup("foo")
	barIdx, _ := at.Lookup("bar")
	fIdx, _ := at.Lookup("f")

	v := h.unbound()
	i1, i2 := word.MakeInt(1), word.MakeInt(2)
	afoo := word.Make(word.Atom, uint64(fooIdx))
	abar := word.Make(word.Atom, uint64(barIdx))
	s1 := word.Make(word.Str, h.push(word.MakeFun(fIdx, 1), i1))
	s2 := word.Make(word.Str, h.push(word.MakeFun(fIdx, 1), i2))
	l1 := h.list(i1)

	cmp := func(a, b word.W) int {
		c, err := Compare(SliceMem(h.mem), at, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Var < Int < Atom < Compound
	if cmp(v, i1) >= 0 || cmp(i1, afoo) >= 0 || cmp(afoo, s1) >= 0 {
		t.Error("standard order rank violated")
	}
	if cmp(i1, i2) >= 0 || cmp(i2, i1) <= 0 || cmp(i1, i1) != 0 {
		t.Error("integer order broken")
	}
	if cmp(abar, afoo) >= 0 { // bar < foo alphabetically
		t.Error("atom order broken")
	}
	if cmp(s1, s2) >= 0 || cmp(s1, s1) != 0 {
		t.Error("structure arg order broken")
	}
	if cmp(l1, l1) != 0 {
		t.Error("list must equal itself")
	}
	// Arity dominates name: f(1) < foo-struct of arity 2? build g/2
	g2 := word.Make(word.Str, h.push(word.MakeFun(barIdx, 2), i1, i2))
	if cmp(s1, g2) >= 0 {
		t.Error("lower arity must order first")
	}
}

func TestLoadOutOfRange(t *testing.T) {
	m := SliceMem(make([]word.W, 4))
	if _, err := m.Load(10); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := FormatOps(m, atoms(), word.Make(word.Lst, 100)); err == nil {
		t.Error("format through a bad pointer must fail")
	}
}
