package word

import (
	"testing"
	"testing/quick"
)

func TestTagRoundTrip(t *testing.T) {
	f := func(v uint64, tag uint8) bool {
		tg := Tag(tag % uint8(NumTags))
		w := Make(tg, v)
		return w.Tag() == tg && w.Val() == v&((1<<60)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		// 60-bit two's complement: values within range round-trip exactly.
		const lim = int64(1) << 59
		if v >= lim || v < -lim {
			v %= lim
		}
		w := MakeInt(v)
		return w.Tag() == Int && w.Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	cases := []int64{0, 1, -1, 42, -42, 1<<59 - 1, -(1 << 59)}
	for _, v := range cases {
		if got := MakeInt(v).Int(); got != v {
			t.Errorf("MakeInt(%d).Int() = %d", v, got)
		}
	}
}

func TestWithTagPreservesValue(t *testing.T) {
	f := func(v uint64, a, b uint8) bool {
		ta := Tag(a % uint8(NumTags))
		tb := Tag(b % uint8(NumTags))
		w := Make(ta, v).WithTag(tb)
		return w.Tag() == tb && w.Val() == v&((1<<60)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFunEncoding(t *testing.T) {
	f := func(a uint32, n uint16) bool {
		// Atom index limited to 44 bits by the layout; 32 bits is plenty.
		w := MakeFun(a, int(n))
		return w.Tag() == Fun && w.FunAtom() == a && w.FunArity() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCdrBit(t *testing.T) {
	w := Make(Lst, 7)
	if w&cdrBit != 0 {
		t.Error("cdr bit set unexpectedly")
	}
	wc := w.WithCdr()
	if wc != w|cdrBit || wc.Tag() != Lst || wc.Val() != 7 {
		t.Error("WithCdr must set only the cdr bit")
	}
	// WithTag preserves the cdr bit (§5.2: independently addressable fields).
	if wc.WithTag(Str)&cdrBit == 0 {
		t.Error("WithTag must preserve the cdr bit")
	}
}

func TestStrings(t *testing.T) {
	if MakeInt(-5).String() != "int:-5" {
		t.Errorf("got %q", MakeInt(-5).String())
	}
	if MakeFun(3, 2).String() != "fun:3/2" {
		t.Errorf("got %q", MakeFun(3, 2).String())
	}
	if Make(Atom, 0).String() != "atm:0x0" {
		t.Errorf("got %q", Make(Atom, 0).String())
	}
}
