package ic

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"symbol/internal/word"
)

// TestInstSize pins the ICI record at 48 bytes on 64-bit targets: every
// loaded program keeps its code resident, so a field added or reordered
// into padding grows every program's live heap by a third.
func TestInstSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 48-byte layout is for 64-bit targets")
	}
	if got := unsafe.Sizeof(Inst{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Inst{}) = %d, want 48", got)
	}
}

func TestCondInvertInvolution(t *testing.T) {
	f := func(c uint8) bool {
		cond := Cond(c % 6)
		return cond.Invert().Invert() == cond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondInvertPartition(t *testing.T) {
	// For every condition and every pair of comparands, exactly one of
	// cond/invert(cond) holds.
	eval := func(c Cond, a, b int64) bool {
		switch c {
		case CondEq:
			return a == b
		case CondNe:
			return a != b
		case CondLt:
			return a < b
		case CondLe:
			return a <= b
		case CondGt:
			return a > b
		default:
			return a >= b
		}
	}
	f := func(c uint8, a, b int64) bool {
		cond := Cond(c % 6)
		return eval(cond, a, b) != eval(cond.Invert(), a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClasses(t *testing.T) {
	cases := map[Op]Class{
		Ld: ClassMemory, St: ClassMemory,
		Add: ClassALU, MkTag: ClassALU, Lea: ClassALU, GetTag: ClassALU,
		Mov: ClassMove, MovI: ClassMove,
		BrTag: ClassControl, BrCmp: ClassControl, Jmp: ClassControl,
		JmpR: ClassControl, Jsr: ClassControl, Halt: ClassControl,
		SysOp: ClassSys,
	}
	for op, want := range cases {
		in := Inst{Op: op}
		if got := in.Class(); got != want {
			t.Errorf("%v: class %v, want %v", op, got, want)
		}
	}
}

func TestUsesAndDef(t *testing.T) {
	type tc struct {
		in   Inst
		uses []Reg
		def  Reg
	}
	cases := []tc{
		{Inst{Op: Ld, D: 5, A: 1}, []Reg{1}, 5},
		{Inst{Op: St, A: 1, B: 2}, []Reg{1, 2}, None},
		{Inst{Op: Add, D: 3, A: 1, B: 2}, []Reg{1, 2}, 3},
		{Inst{Op: Add, D: 3, A: 1, HasImm: true}, []Reg{1}, 3},
		{Inst{Op: Mov, D: 3, A: 1}, []Reg{1}, 3},
		{Inst{Op: MovI, D: 3}, nil, 3},
		{Inst{Op: BrCmp, A: 1, B: 2}, []Reg{1, 2}, None},
		{Inst{Op: BrTag, A: 1}, []Reg{1}, None},
		{Inst{Op: Jmp}, nil, None},
		{Inst{Op: Jsr, D: RegCP}, nil, RegCP},
		{Inst{Op: JmpR, A: RegCP}, []Reg{RegCP}, None},
		{Inst{Op: SysOp, Sys: SysCompare, A: 1, B: 2}, []Reg{1, 2}, RegRV},
		{Inst{Op: SysOp, Sys: SysNl, A: None, B: None}, nil, None},
	}
	for _, c := range cases {
		got := c.in.Uses(nil)
		if len(got) != len(c.uses) {
			t.Errorf("%s: uses %v, want %v", c.in.String(), got, c.uses)
			continue
		}
		for i := range got {
			if got[i] != c.uses[i] {
				t.Errorf("%s: uses %v, want %v", c.in.String(), got, c.uses)
			}
		}
		if d := c.in.Def(); d != c.def {
			t.Errorf("%s: def %v, want %v", c.in.String(), d, c.def)
		}
	}
}

func TestRegionsDisjoint(t *testing.T) {
	// Region boundaries must not overlap.
	bounds := [][2]uint64{
		{HeapBase, HeapBase + HeapSize},
		{EnvBase, EnvBase + EnvSize},
		{CPBase, CPBase + CPSize},
		{TrailBase, TrailBase + TrailSize},
		{PDLBase, PDLBase + PDLSize},
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i][0] < bounds[i-1][1] {
			t.Errorf("region %d overlaps region %d", i, i-1)
		}
	}
	if MemWords < PDLBase+PDLSize {
		t.Error("MemWords must cover all regions")
	}
}

func TestDisassembly(t *testing.T) {
	cases := map[string]Inst{
		"ld    t0, [h+2]":     {Op: Ld, D: FirstTemp, A: RegH, Imm: 2},
		"st    [e+3], a0":     {Op: St, A: RegE, Imm: 3, B: FirstArg},
		"brtag a1 eq lst, @7": {Op: BrTag, A: FirstArg + 1, Cond: CondEq, Tag: word.Lst, Target: 7},
		"jmp   @3":            {Op: Jmp, Target: 3},
		"jsr   cp, @9":        {Op: Jsr, D: RegCP, Target: 9},
		"halt  1":             {Op: Halt, Imm: 1},
		"lea   t0, lst[h+0]":  {Op: Lea, D: FirstTemp, A: RegH, Tag: word.Lst},
		"add   t0, t0, 4":     {Op: Add, D: FirstTemp, A: FirstTemp, HasImm: true, Imm: 4},
		"brcmp tr le t1, @0":  {Op: BrCmp, A: RegTR, Cond: CondLe, B: FirstTemp + 1},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

// TestNameTablesOutOfRange: a value past a name table prints as "Type(n)"
// instead of panicking inside fmt, so a hand-built or corrupt instruction
// still disassembles.
func TestNameTablesOutOfRange(t *testing.T) {
	cases := []struct {
		got  fmt.Stringer
		want string
	}{
		{ClassSys, "sys"},
		{NumClasses, "Class(5)"},
		{Class(255), "Class(255)"},
		{CondGe, "ge"},
		{Cond(6), "Cond(6)"},
		{SysFault, "fault"},
		{SysID(9), "SysID(9)"},
		{RegionBall, "ball"},
		{Region(7), "Region(7)"},
	}
	for _, c := range cases {
		if s := c.got.String(); s != c.want {
			t.Errorf("got %q, want %q", s, c.want)
		}
	}
	if got, want := (&Inst{Op: SysOp, Sys: 9}).String(), "sys   SysID(9) h"; got != want {
		t.Errorf("disassembly %q, want %q", got, want)
	}
}

func TestProgramListing(t *testing.T) {
	p := &Program{
		Code: []Inst{
			{Op: MovI, D: RegH},
			{Op: Halt},
		},
		Names: map[int]string{0: "$start"},
	}
	l := p.Listing()
	if !strings.Contains(l, "$start:") || !strings.Contains(l, "halt") {
		t.Errorf("listing incomplete:\n%s", l)
	}
}
