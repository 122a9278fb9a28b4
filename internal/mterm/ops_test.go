package mterm

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"symbol/internal/parse"
	"symbol/internal/term"
	"symbol/internal/word"
)

// encode builds a ground term image on the test heap.
func encode(h *heap, atoms *term.Table, t term.Term) word.W {
	switch x := t.(type) {
	case term.Int:
		return word.MakeInt(int64(x))
	case term.Atom:
		return word.Make(word.Atom, uint64(atoms.Intern(string(x))))
	case *term.Compound:
		if x.Functor == term.ConsName && len(x.Args) == 2 {
			hd := encode(h, atoms, x.Args[0])
			tl := encode(h, atoms, x.Args[1])
			at := h.push(hd, tl)
			return word.Make(word.Lst, at)
		}
		ws := make([]word.W, len(x.Args)+1)
		ws[0] = word.MakeFun(atoms.Intern(x.Functor), len(x.Args))
		for i, a := range x.Args {
			ws[i+1] = encode(h, atoms, a)
		}
		at := h.push(ws...)
		return word.Make(word.Str, at)
	}
	panic("encode: variables unsupported in this test")
}

func fmtOps(t *testing.T, tm term.Term) string {
	t.Helper()
	h := newHeap()
	atoms := term.NewTable()
	w := encode(h, atoms, tm)
	s, err := FormatOps(SliceMem(h.mem), atoms, w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func parseOne(t *testing.T, src string) term.Term {
	t.Helper()
	ts, err := parse.All(src + ".")
	if err != nil {
		t.Fatalf("reparse %q: %v", src, err)
	}
	return ts[0]
}

func TestFormatOpsCases(t *testing.T) {
	cases := map[string]string{
		"+(1,*(2,3))":    "1+2*3",
		"*(+(1,2),3)":    "(1+2)*3",
		"-(1,-(2,3))":    "1-(2-3)", // yfx: right nesting needs parens
		"-(-(1,2),3)":    "1-2-3",
		"^(2,^(3,4))":    "2^3^4", // xfy: right nesting is natural
		"is(X1,+(a,1))":  "_X is a+1",
		"mod(7,2)":       "7 mod 2",
		"';'(a,b)":       "a;b",
		"-( - (3))":      "- -3", // keep prefix minus unglued? see below
		"f(+(1,2),g(3))": "f(1+2,g(3))",
		"=(a,b)":         "a=b",
		"\\+(a)":         "\\+a",
	}
	_ = cases
	// Table-driven via explicit terms (the keys above are documentation).
	type tc struct {
		tm   term.Term
		want string
	}
	c := func(f string, args ...term.Term) *term.Compound {
		return &term.Compound{Functor: f, Args: args}
	}
	tests := []tc{
		{c("+", term.Int(1), c("*", term.Int(2), term.Int(3))), "1+2*3"},
		{c("*", c("+", term.Int(1), term.Int(2)), term.Int(3)), "(1+2)*3"},
		{c("-", term.Int(1), c("-", term.Int(2), term.Int(3))), "1-(2-3)"},
		{c("-", c("-", term.Int(1), term.Int(2)), term.Int(3)), "1-2-3"},
		{c("^", term.Int(2), c("^", term.Int(3), term.Int(4))), "2^3^4"},
		{c("^", c("^", term.Int(2), term.Int(3)), term.Int(4)), "(2^3)^4"},
		{c("mod", term.Int(7), term.Int(2)), "7 mod 2"},
		{c(";", term.Atom("a"), term.Atom("b")), "a;b"},
		{c("f", c("+", term.Int(1), term.Int(2)), c("g", term.Int(3))), "f(1+2,g(3))"},
		{c("=", term.Atom("a"), term.Atom("b")), "a=b"},
		{c("\\+", term.Atom("a")), "\\+a"},
		{c("-", term.Int(-1)), "- -1"},
		{c("-", c("-", term.Int(1))), "- -(1)"},
		{c("+", c("-", term.Int(1)), term.Int(2)), "-(1)+2"},
		{term.FromList([]term.Term{c("+", term.Int(1), term.Int(2)), term.Atom("x")}), "[1+2,x]"},
	}
	for _, x := range tests {
		got := fmtOps(t, x.tm)
		if got != x.want {
			t.Errorf("got %q, want %q", got, x.want)
		}
	}
}

// ground strips variables for comparison (none generated here) and compares
// modulo the integer-vs-negation ambiguity: the reader parses "-1" as the
// integer -1, while the printer may have produced it from -(1).
func equivalent(a, b term.Term) bool {
	if na, ok := negOfPositive(a); ok {
		a = na
	}
	if nb, ok := negOfPositive(b); ok {
		b = nb
	}
	ca, okA := a.(*term.Compound)
	cb, okB := b.(*term.Compound)
	if okA != okB {
		return term.Equal(a, b)
	}
	if !okA {
		return term.Equal(a, b)
	}
	if ca.Functor != cb.Functor || len(ca.Args) != len(cb.Args) {
		return false
	}
	for i := range ca.Args {
		if !equivalent(ca.Args[i], cb.Args[i]) {
			return false
		}
	}
	return true
}

func negOfPositive(t term.Term) (term.Term, bool) {
	if c, ok := t.(*term.Compound); ok && c.Functor == "-" && len(c.Args) == 1 {
		if n, ok := c.Args[0].(term.Int); ok && n >= 0 {
			return term.Int(-int64(n)), true
		}
	}
	return t, false
}

// TestFormatOpsRoundTrip is the key property: printing any ground operator
// term and reading it back yields the same term, for every operator of the
// table the reader and the writer share.
func TestFormatOpsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var gen func(depth int) term.Term
	atoms := []string{"a", "b", "foo"}
	binOps := slices.Sorted(maps.Keys(term.InfixOps))
	preOps := slices.Sorted(maps.Keys(term.PrefixOps))
	gen = func(depth int) term.Term {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return term.Int(int64(rng.Intn(21) - 10))
			}
			return term.Atom(atoms[rng.Intn(len(atoms))])
		}
		switch rng.Intn(5) {
		case 0:
			return &term.Compound{Functor: preOps[rng.Intn(len(preOps))],
				Args: []term.Term{gen(depth - 1)}}
		case 1:
			return &term.Compound{Functor: "f",
				Args: []term.Term{gen(depth - 1), gen(depth - 1)}}
		case 2:
			return term.Cons(gen(depth-1), term.FromList([]term.Term{gen(depth - 1)}))
		default:
			return &term.Compound{Functor: binOps[rng.Intn(len(binOps))],
				Args: []term.Term{gen(depth - 1), gen(depth - 1)}}
		}
	}
	for i := 0; i < 500; i++ {
		tm := gen(4)
		s := fmtOps(t, tm)
		back := parseOne(t, s)
		if !equivalent(tm, back) {
			t.Fatalf("round trip failed:\n  term   %v\n  printed %q\n  reparsed %v",
				tm, s, back)
		}
	}
}
