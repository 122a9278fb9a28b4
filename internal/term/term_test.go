package term

import (
	"testing"
)

func TestListHelpers(t *testing.T) {
	l := FromList([]Term{Int(1), Int(2), Int(3)})
	if l.String() != "[1,2,3]" {
		t.Errorf("got %q", l.String())
	}
	if FromList(nil) != NilAtom {
		t.Error("empty FromList must be []")
	}
	c := Cons(Atom("a"), NilAtom)
	if c.Functor != ConsName || len(c.Args) != 2 {
		t.Error("bad cons cell")
	}
}

func TestIndicator(t *testing.T) {
	pi, ok := IndicatorOf(Atom("foo"))
	if !ok || pi.Name != "foo" || pi.Arity != 0 {
		t.Errorf("got %v", pi)
	}
	pi, ok = IndicatorOf(&Compound{Functor: "f", Args: []Term{Int(1), Int(2)}})
	if !ok || pi.String() != "f/2" {
		t.Errorf("got %v", pi)
	}
	if _, ok := IndicatorOf(Int(3)); ok {
		t.Error("integers are not callable")
	}
	if _, ok := IndicatorOf(&Var{}); ok {
		t.Error("variables are not callable")
	}
}

func TestStringQuoting(t *testing.T) {
	cases := map[Term]string{
		Atom("foo"):       "foo",
		Atom("hello bob"): "'hello bob'",
		Atom("+"):         "+",
		Atom("[]"):        "[]",
		Atom("Caps"):      "'Caps'",
		Atom(""):          "''",
		Int(-7):           "-7",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%#v → %q, want %q", in, got, want)
		}
	}
}

func TestPartialListString(t *testing.T) {
	v := &Var{Name: "T"}
	l := Cons(Int(1), Cons(Int(2), v))
	if l.String() != "[1,2|T]" {
		t.Errorf("got %q", l.String())
	}
}

func TestEqual(t *testing.T) {
	x := &Var{Name: "X"}
	y := &Var{Name: "X"} // same name, different identity
	if Equal(x, y) {
		t.Error("variables compare by identity")
	}
	if !Equal(x, x) {
		t.Error("variable must equal itself")
	}
	a := &Compound{Functor: "f", Args: []Term{Int(1), x}}
	b := &Compound{Functor: "f", Args: []Term{Int(1), x}}
	if !Equal(a, b) {
		t.Error("structurally equal compounds")
	}
	c := &Compound{Functor: "f", Args: []Term{Int(2), x}}
	if Equal(a, c) {
		t.Error("different args must differ")
	}
}

func TestVarsOrderAndDedup(t *testing.T) {
	x, y := &Var{Name: "X"}, &Var{Name: "Y"}
	tm := &Compound{Functor: "f", Args: []Term{x, y, x, Cons(y, NilAtom)}}
	vs := Vars(tm, nil)
	if len(vs) != 2 || vs[0] != x || vs[1] != y {
		t.Errorf("got %v", vs)
	}
}

func TestTableInterning(t *testing.T) {
	tab := NewTable()
	if tab.Intern("[]") != 0 {
		t.Error("'[]' must be atom 0")
	}
	a := tab.Intern("foo")
	if tab.Intern("foo") != a {
		t.Error("interning is idempotent")
	}
	if tab.Name(a) != "foo" {
		t.Errorf("got %q", tab.Name(a))
	}
	if _, ok := tab.Lookup("bar"); ok {
		t.Error("lookup must not intern")
	}
	if tab.Len() < 3 {
		t.Error("seeded atoms missing")
	}
	if tab.Name(9999) == "" {
		t.Error("unknown index must render a placeholder")
	}
}
