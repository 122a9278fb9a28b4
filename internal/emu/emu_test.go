package emu

import (
	"strings"
	"testing"

	"symbol/internal/ic"
	"symbol/internal/term"
	"symbol/internal/word"
)

var rA = ic.ArgReg(0)

const (
	t0 = ic.FirstTemp
	t1 = ic.FirstTemp + 1
)

func mkProg(code []ic.Inst) *ic.Program {
	return &ic.Program{
		Code:    code,
		Atoms:   term.NewTable(),
		Procs:   map[string]int{},
		Names:   map[int]string{},
		Entries: map[int]bool{0: true},
	}
}

func runCode(t *testing.T, code []ic.Inst) *Result {
	t.Helper()
	res, err := Run(mkProg(code), Options{MaxSteps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestALUOps(t *testing.T) {
	type tc struct {
		op   ic.Op
		a, b int64
		want int64
	}
	cases := []tc{
		{ic.Add, 7, 3, 10},
		{ic.Sub, 7, 3, 4},
		{ic.Mul, 7, 3, 21},
		{ic.Div, 7, 3, 2},
		{ic.Div, -7, 3, -2}, // truncation toward zero
		{ic.Mod, 7, 3, 1},
		{ic.And, 6, 3, 2},
		{ic.Or, 6, 3, 7},
		{ic.Xor, 6, 3, 5},
		{ic.Shl, 3, 2, 12},
		{ic.Shr, 12, 2, 3},
	}
	for _, c := range cases {
		code := []ic.Inst{
			{Op: ic.MovI, D: t0, Word: word.MakeInt(c.a)},
			{Op: ic.MovI, D: t1, Word: word.MakeInt(c.b)},
			{Op: c.op, D: t0, A: t0, B: t1},
			{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true,
				Word: word.MakeInt(c.want), Target: 5},
			{Op: ic.Halt, Imm: 1},
			{Op: ic.Halt, Imm: 0},
		}
		if res := runCode(t, code); res.Status != 0 {
			t.Errorf("%v(%d,%d) != %d", c.op, c.a, c.b, c.want)
		}
	}
}

func TestALUPreservesTag(t *testing.T) {
	// Address arithmetic keeps the pointer tag (§5.2 datapath).
	code := []ic.Inst{
		{Op: ic.MovI, D: t0, Word: word.Make(word.Lst, 100)},
		{Op: ic.Add, D: t0, A: t0, HasImm: true, Imm: 4},
		{Op: ic.BrTag, A: t0, Cond: ic.CondNe, Tag: word.Lst, Target: 4},
		{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true,
			Word: word.Make(word.Lst, 104), Target: 5},
		{Op: ic.Halt, Imm: 1},
		{Op: ic.Halt, Imm: 0},
	}
	if res := runCode(t, code); res.Status != 0 {
		t.Error("tag not preserved across value arithmetic")
	}
}

func TestMemoryAndLea(t *testing.T) {
	code := []ic.Inst{
		{Op: ic.MovI, D: ic.RegH, Word: word.MakeRef(ic.HeapBase)},
		{Op: ic.MovI, D: t0, Word: word.MakeInt(99)},
		{Op: ic.St, A: ic.RegH, Imm: 2, B: t0},
		{Op: ic.Lea, D: t1, A: ic.RegH, Imm: 2, Tag: word.Str},
		{Op: ic.Ld, D: t0, A: t1, Imm: 0},
		{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, HasImm: true,
			Word: word.MakeInt(99), Target: 7},
		{Op: ic.Halt, Imm: 0},
		{Op: ic.Halt, Imm: 1},
	}
	if res := runCode(t, code); res.Status != 0 {
		t.Error("store/lea/load roundtrip failed")
	}
}

func TestJsrAndJmpR(t *testing.T) {
	code := []ic.Inst{
		{Op: ic.Jsr, D: ic.RegCP, Target: 3}, // call
		{Op: ic.Halt, Imm: 0},                // return lands here
		{Op: ic.Halt, Imm: 1},
		{Op: ic.JmpR, A: ic.RegCP}, // return
	}
	if res := runCode(t, code); res.Status != 0 {
		t.Error("call/return broken")
	}
}

func TestGetTag(t *testing.T) {
	code := []ic.Inst{
		{Op: ic.MovI, D: t0, Word: word.Make(word.Atom, 5)},
		{Op: ic.GetTag, D: t1, A: t0},
		{Op: ic.BrCmp, A: t1, Cond: ic.CondNe, HasImm: true,
			Word: word.MakeInt(int64(word.Atom)), Target: 4},
		{Op: ic.Halt, Imm: 0},
		{Op: ic.Halt, Imm: 1},
	}
	if res := runCode(t, code); res.Status != 0 {
		t.Error("gettag broken")
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string][]ic.Inst{
		"division by zero": {
			{Op: ic.MovI, D: t0, Word: word.MakeInt(1)},
			{Op: ic.MovI, D: t1, Word: word.MakeInt(0)},
			{Op: ic.Div, D: t0, A: t0, B: t1},
			{Op: ic.Halt},
		},
		"store out of range": {
			{Op: ic.MovI, D: t0, Word: word.MakeRef(1 << 40)},
			{Op: ic.St, A: t0, Imm: 0, B: t0},
			{Op: ic.Halt},
		},
		"load out of range": {
			{Op: ic.MovI, D: t0, Word: word.MakeRef(1 << 40)},
			{Op: ic.Ld, D: t1, A: t0, Imm: 0},
			{Op: ic.Halt},
		},
		"pc out of range": {
			{Op: ic.Jmp, Target: -1},
		},
	}
	for name, code := range cases {
		_, err := Run(mkProg(code), Options{MaxSteps: 100})
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		var e *Error
		if !strings.Contains(err.Error(), "emu:") {
			t.Errorf("%s: error lacks context: %v", name, err)
		}
		_ = e
	}
}

// TestUnknownSysOpError pins the error text of a one-instruction program
// whose SysID no table names (predecoded to XSysBad): every mode reports
// the same message, with the instruction disassembled, not a fmt panic.
func TestUnknownSysOpError(t *testing.T) {
	prog := mkProg([]ic.Inst{{Op: ic.SysOp, Sys: ic.SysID(9)}})
	const want = "emu: pc=0 [sys   SysID(9) h]: unknown sys op"
	for _, opts := range []Options{{Legacy: true}, {NoFuse: true}, {}} {
		_, err := Run(prog, opts)
		if err == nil || err.Error() != want {
			t.Errorf("legacy=%v nofuse=%v: error %v, want %q", opts.Legacy, opts.NoFuse, err, want)
		}
	}
}

func TestStepLimit(t *testing.T) {
	code := []ic.Inst{{Op: ic.Jmp, Target: 0}}
	if _, err := Run(mkProg(code), Options{MaxSteps: 50}); err == nil {
		t.Error("expected step-limit error")
	}
}

func TestProfileCounts(t *testing.T) {
	// A branch taken 1 of 4 times: loop decrementing t0 from 3.
	code := []ic.Inst{
		{Op: ic.MovI, D: t0, Word: word.MakeInt(3)},                             // 0
		{Op: ic.Sub, D: t0, A: t0, HasImm: true, Imm: 1},                        // 1
		{Op: ic.BrCmp, A: t0, Cond: ic.CondGt, HasImm: true, Imm: 0, Target: 1}, // 2
		{Op: ic.Halt}, // 3
	}
	res, err := Run(mkProg(code), Options{MaxSteps: 100, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Expect[0] != 1 || p.Expect[1] != 3 || p.Expect[2] != 3 || p.Expect[3] != 1 {
		t.Errorf("expect counts %v", p.Expect)
	}
	if p.Taken[2] != 2 {
		t.Errorf("taken count %d", p.Taken[2])
	}
	pr, ok := p.Probability(2)
	if !ok || pr < 0.66 || pr > 0.67 {
		t.Errorf("probability %f", pr)
	}
	if _, ok := p.Probability(3); !ok {
		t.Error("executed instruction must report a probability")
	}
}

func TestSysCompareViaEmu(t *testing.T) {
	code := []ic.Inst{
		{Op: ic.MovI, D: rA, Word: word.MakeInt(3)},
		{Op: ic.MovI, D: t0, Word: word.MakeInt(3)},
		{Op: ic.SysOp, Sys: ic.SysCompare, A: rA, B: t0},
		{Op: ic.BrCmp, A: ic.RegRV, Cond: ic.CondNe, HasImm: true,
			Word: word.MakeInt(0), Target: 5},
		{Op: ic.Halt, Imm: 0},
		{Op: ic.Halt, Imm: 1},
	}
	if res := runCode(t, code); res.Status != 0 {
		t.Error("compare escape broken")
	}
}

func TestOutputAndWriteCode(t *testing.T) {
	prog := mkProg([]ic.Inst{
		{Op: ic.MovI, D: rA, Word: word.MakeInt(65)},
		{Op: ic.SysOp, Sys: ic.SysWriteCode, A: rA, B: ic.None},
		{Op: ic.SysOp, Sys: ic.SysNl, A: ic.None, B: ic.None},
		{Op: ic.MovI, D: rA, Word: word.MakeInt(-7)},
		{Op: ic.SysOp, Sys: ic.SysWrite, A: rA, B: ic.None},
		{Op: ic.Halt},
	})
	res, err := Run(prog, Options{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "A\n-7" {
		t.Errorf("output %q", res.Output)
	}
}

// TestBrCmpEqImmWordSemantics is the regression test for the evalCmp
// immediate-equality bug: CondEq/CondNe with HasImm compare the full tagged
// word in Inst.Word. The old code reinterpreted Imm's raw bits as a tagged
// word, so an emitter that stored a plain integer in Imm (here: 5, which as
// raw bits is a Ref-tagged word) silently compared against garbage. The
// instruction below carries that garbage Imm on purpose; all three
// execution modes must ignore it and take the branch on the Word match.
func TestBrCmpEqImmWordSemantics(t *testing.T) {
	code := []ic.Inst{
		{Op: ic.MovI, D: t0, Word: word.MakeInt(5)},
		{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true,
			Word: word.MakeInt(5), Imm: 5, Target: 3},
		{Op: ic.Halt, Imm: 1},
		// Ne with a mismatched Word must also branch.
		{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, HasImm: true,
			Word: word.MakeInt(6), Imm: 5, Target: 5},
		{Op: ic.Halt, Imm: 1},
		{Op: ic.Halt, Imm: 0},
	}
	prog := mkProg(code)
	for _, opts := range []Options{
		{MaxSteps: 100, Legacy: true},
		{MaxSteps: 100, NoFuse: true},
		{MaxSteps: 100},
	} {
		res, err := Run(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 0 {
			t.Errorf("legacy=%v nofuse=%v: BrCmp imm compared raw Imm bits instead of Word",
				opts.Legacy, opts.NoFuse)
		}
	}
}

// TestRunModesAgreeOnErrors spot-checks that the predecoded loop reports
// the same machine errors as the legacy interpreter, including the pc and
// instruction context embedded in the rendered message.
func TestRunModesAgreeOnErrors(t *testing.T) {
	cases := [][]ic.Inst{
		{{Op: ic.Jmp, Target: -3}}, // static bad target
		{{Op: ic.MovI, D: t0, Word: word.MakeInt(99)}, {Op: ic.JmpR, A: t0}}, // dynamic bad pc
		{{Op: ic.MovI, D: t0, Word: word.MakeInt(0)},
			{Op: ic.MovI, D: t1, Word: word.MakeInt(1)},
			{Op: ic.Div, D: t1, A: t1, B: t0}}, // zero divide
		{{Op: ic.MovI, D: t0, Word: word.MakeInt(-1)},
			{Op: ic.Ld, D: t1, A: t0}}, // load out of range
	}
	for i, code := range cases {
		prog := mkProg(code)
		_, legacyErr := Run(prog, Options{MaxSteps: 100, Legacy: true})
		if legacyErr == nil {
			t.Fatalf("case %d: legacy run unexpectedly succeeded", i)
		}
		for _, opts := range []Options{{MaxSteps: 100, NoFuse: true}, {MaxSteps: 100}} {
			_, err := Run(prog, opts)
			if err == nil || err.Error() != legacyErr.Error() {
				t.Errorf("case %d (nofuse=%v): error %v, legacy %v", i, opts.NoFuse, err, legacyErr)
			}
		}
	}
}
