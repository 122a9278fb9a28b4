package vliw

import (
	"strings"
	"testing"

	"symbol/internal/ic"
	"symbol/internal/machine"
	"symbol/internal/term"
	"symbol/internal/word"
)

var (
	rA = ic.ArgReg(0)
)

const (
	t0 = ic.FirstTemp
	t1 = ic.FirstTemp + 1
)

func mkIC() *ic.Program {
	return &ic.Program{Atoms: term.NewTable(), Names: map[int]string{}}
}

func mk(words []Word, entry int) *Program {
	return &Program{
		Words:  words,
		Entry:  entry,
		IC:     mkIC(),
		WordOf: map[int]int{},
		Config: machine.Default(2),
	}
}

func TestSimpleHalt(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t0, Word: word.MakeInt(7)}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}},
	}, 0)
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 || r.Cycles != 2 || r.Words != 2 {
		t.Errorf("got %+v", r)
	}
}

func TestParallelWordSemantics(t *testing.T) {
	// A word computing t0,t1 from each other must swap (reads see the
	// state at the start of the word).
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t0, Word: word.MakeInt(1)}},
			{Inst: ic.Inst{Op: ic.MovI, D: t1, Word: word.MakeInt(2)}}},
		{{Inst: ic.Inst{Op: ic.Mov, D: t0, A: t1}},
			{Inst: ic.Inst{Op: ic.Mov, D: t1, A: t0}}},
		{{Inst: ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, HasImm: true, Word: word.MakeInt(2), Target: 4}}},
		{{Inst: ic.Inst{Op: ic.BrCmp, A: t1, Cond: ic.CondNe, HasImm: true, Word: word.MakeInt(1), Target: 4}},
			{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 1}}},
	}, 0)
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 {
		t.Error("parallel swap semantics broken")
	}
}

func TestTakenBranchBubble(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.Jmp, Target: 1}}},
		{{Inst: ic.Inst{Op: ic.Halt}}},
	}, 0)
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// word0 (1 cycle) + bubble (1) + word1 (1) = 3 cycles.
	if r.Cycles != 3 || r.Bubble != 1 {
		t.Errorf("cycles=%d bubble=%d", r.Cycles, r.Bubble)
	}
}

func TestLatencyViolationDetected(t *testing.T) {
	// A load consumed in the next word violates the 2-cycle memory latency.
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t1, Word: word.MakeRef(ic.HeapBase)}}},
		{{Inst: ic.Inst{Op: ic.Ld, D: t0, A: t1}}},
		{{Inst: ic.Inst{Op: ic.Mov, D: t1, A: t0}}},
		{{Inst: ic.Inst{Op: ic.Halt}}},
	}, 0)
	_, err := Sim(p, SimOptions{})
	if err == nil || !strings.Contains(err.Error(), "latency violation") {
		t.Fatalf("expected latency violation, got %v", err)
	}

	// A machine without interlocks reads every slot's operands at issue,
	// so a lower-priority branch that a taken one overrides is checked too.
	p = mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t1, Word: word.MakeRef(ic.HeapBase)}}},
		{{Inst: ic.Inst{Op: ic.Ld, D: t0, A: t1}}},
		{{Inst: ic.Inst{Op: ic.Jmp, Target: 3}},
			{Inst: ic.Inst{Op: ic.BrTag, A: t0, Tag: word.Ref, Target: 3}}},
		{{Inst: ic.Inst{Op: ic.Halt}}},
	}, 0)
	_, err = Sim(p, SimOptions{})
	if err == nil || !strings.Contains(err.Error(), "latency violation: register") {
		t.Fatalf("overridden branch: expected latency violation, got %v", err)
	}
}

func TestMultiwayBranchPriority(t *testing.T) {
	// Two taken branches in one word: the first (higher priority) wins.
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t0, Word: word.MakeInt(5)}}},
		{{Inst: ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true, Word: word.MakeInt(5), Target: 2}},
			{Inst: ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true, Word: word.MakeInt(5), Target: 3}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 1}}},
	}, 0)
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 {
		t.Error("first branch in slot order must win")
	}

	// A taken branch overrides later branches only: a non-branch op after
	// it in the same word still executes.
	p = mk([]Word{
		{{Inst: ic.Inst{Op: ic.Jmp, Target: 1}},
			{Inst: ic.Inst{Op: ic.MovI, D: t0, Word: word.MakeInt(9)}}},
		{{Inst: ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true, Word: word.MakeInt(9), Target: 2}},
			{Inst: ic.Inst{Op: ic.Halt, Imm: 1}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}},
	}, 0)
	r, err = Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 {
		t.Error("an op after the taken branch in the same word must execute")
	}
}

func TestSpeculativeLoadNonFaulting(t *testing.T) {
	// Loading through an integer "address" out of range yields 0 instead
	// of faulting (dismissible loads).
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t1, Word: word.MakeInt(-12345)}}},
		{{Inst: ic.Inst{Op: ic.Ld, D: t0, A: t1}}},
		{},
		{{Inst: ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, HasImm: true, Imm: 0, Target: 4}},
			{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 1}}},
	}, 0)
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 {
		t.Error("speculative load must dismiss to 0")
	}
}

func TestJmpRTranslation(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t0, Word: word.Make(word.Code, 77)}}},
		{{Inst: ic.Inst{Op: ic.JmpR, A: t0}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 1}}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}},
	}, 0)
	p.WordOf[77] = 3
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 {
		t.Error("indirect jump must translate original pc 77 to word 3")
	}

	p.WordOf = map[int]int{}
	if _, err := Sim(p, SimOptions{}); err == nil {
		t.Error("unaddressable indirect target must fail")
	}
}

func TestJsrReturnAddressIsOriginalPC(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.Jsr, D: ic.RegCP, Target: 2}, PC: 40}},
		{{Inst: ic.Inst{Op: ic.Halt, Imm: 0}}}, // return lands here
		{{Inst: ic.Inst{Op: ic.JmpR, A: ic.RegCP}}},
	}, 0)
	p.WordOf[41] = 1 // original pc 40+1 maps to word 1
	r, err := Sim(p, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 0 {
		t.Error("call/return through original pc space broken")
	}
}

func TestValidateCatchesOversubscription(t *testing.T) {
	big := Word{}
	for i := 0; i < 5; i++ {
		big = append(big, Op{Inst: ic.Inst{Op: ic.Add, D: t0, A: rA, HasImm: true}})
	}
	p := mk([]Word{big, {{Inst: ic.Inst{Op: ic.Halt}}}}, 0)
	if err := p.Validate(); err == nil {
		t.Error("expected resource oversubscription error")
	}
	p2 := mk([]Word{{{Inst: ic.Inst{Op: ic.Jmp, Target: 99}}}}, 0)
	if err := p2.Validate(); err == nil {
		t.Error("expected bad-target error")
	}
}

func TestListing(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.MovI, D: t0, Word: word.MakeInt(1)}}},
		{},
		{{Inst: ic.Inst{Op: ic.Halt}}},
	}, 0)
	p.TraceBounds = []int{0}
	l := p.Listing()
	if !strings.Contains(l, "trace") || !strings.Contains(l, "nop") {
		t.Errorf("listing incomplete:\n%s", l)
	}
	if p.OpCount() != 2 {
		t.Errorf("op count = %d", p.OpCount())
	}
}

func TestCycleLimit(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.Jmp, Target: 0}}},
	}, 0)
	if _, err := Sim(p, SimOptions{MaxCycles: 100}); err == nil {
		t.Error("expected cycle-limit error on infinite loop")
	}
}

// TestUnknownSysOpError: a SysID no table names fails with simulation
// context, like every other simulator failure.
func TestUnknownSysOpError(t *testing.T) {
	p := mk([]Word{
		{{Inst: ic.Inst{Op: ic.SysOp, Sys: ic.SysID(9)}}},
	}, 0)
	_, err := Sim(p, SimOptions{})
	const want = "vliw: word 0 cycle 0: unknown sys op"
	if _, ok := err.(*SimError); !ok || err.Error() != want {
		t.Errorf("error %T %v, want *SimError %q", err, err, want)
	}
}
