package expand

import (
	"strings"
	"testing"

	"symbol/internal/bam"
	"symbol/internal/emu"
	"symbol/internal/ic"
	"symbol/internal/term"
	"symbol/internal/word"
)

// translate builds a unit whose main/0 is the given BAM instructions.
func translate(t *testing.T, body []bam.Instr, numLabels int) *ic.Program {
	t.Helper()
	code := append([]bam.Instr{{Op: bam.Proc, Name: "main", Arity: 0}}, body...)
	u := &bam.Unit{Code: code, NumLabels: numLabels + 1, NextTemp: ic.FirstTemp + 64, Entry: "main/0"}
	prog, err := Translate(u, term.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runBAM(t *testing.T, body []bam.Instr, numLabels int) *emu.Result {
	t.Helper()
	prog := translate(t, body, numLabels)
	res, err := emu.Run(prog, emu.Options{MaxSteps: 1e6})
	if err != nil {
		t.Fatalf("%v\n%s", err, prog.Listing())
	}
	return res
}

var r0 = ic.FirstTemp

func TestHaltStatus(t *testing.T) {
	res := runBAM(t, []bam.Instr{{Op: bam.HaltI, N: 7}}, 0)
	if res.Status != 7 {
		t.Errorf("status %d", res.Status)
	}
}

func TestReturnFromMain(t *testing.T) {
	// main returns: the entry stub then halts with 0.
	res := runBAM(t, []bam.Instr{{Op: bam.Ret}}, 0)
	if res.Status != 0 {
		t.Errorf("status %d", res.Status)
	}
}

func TestFailAtBottomHalts1(t *testing.T) {
	res := runBAM(t, []bam.Instr{{Op: bam.FailI}}, 0)
	if res.Status != 1 {
		t.Errorf("status %d", res.Status)
	}
}

func TestTryRetryTrustCycle(t *testing.T) {
	// try L1; fail → L1: retry L2 (restores) ; fail → L2: trust; succeed.
	body := []bam.Instr{
		{Op: bam.Move, Dst: ic.ArgReg(0), Src: bam.IntV(1)},
		{Op: bam.Try, L: 1, N: 1},
		{Op: bam.FailI},
		{Op: bam.Lbl, L: 1},
		{Op: bam.RestoreArgs, N: 1},
		{Op: bam.Retry, L: 2},
		{Op: bam.FailI},
		{Op: bam.Lbl, L: 2},
		{Op: bam.RestoreArgs, N: 1},
		{Op: bam.Trust},
		// The restored argument register must still hold 1.
		{Op: bam.BrEq, V1: bam.Reg(ic.ArgReg(0)), Cond: ic.CondNe, V2: bam.IntV(1), L: 0},
		{Op: bam.HaltI, N: 0},
	}
	res := runBAM(t, body, 2)
	if res.Status != 0 {
		t.Error("retry/trust cycle with argument restoration failed")
	}
}

func TestTrailUnwindRestoresBinding(t *testing.T) {
	// Create a heap cell, push a choice point, bind it, fail: the retry
	// path must observe the cell unbound again.
	body := []bam.Instr{
		{Op: bam.LeaH, Dst: r0, Tag: word.Ref, N: 0},
		{Op: bam.StoreH, N: 0, Src: bam.Reg(r0)},
		{Op: bam.AddH, N: 1},
		{Op: bam.Move, Dst: ic.ArgReg(0), Src: bam.Reg(r0)},
		{Op: bam.Try, L: 1, N: 1},
		{Op: bam.Bind, Reg1: r0, Src: bam.IntV(42)},
		{Op: bam.FailI},
		{Op: bam.Lbl, L: 1},
		{Op: bam.RestoreArgs, N: 1},
		{Op: bam.Trust},
		// Dereference: must be unbound (self reference) again.
		{Op: bam.Deref, Dst: r0 + 1, Src: bam.Reg(ic.ArgReg(0))},
		{Op: bam.BrTagI, Reg1: r0 + 1, Cond: ic.CondNe, Tag: word.Ref, L: 0},
		{Op: bam.HaltI, N: 0},
	}
	res := runBAM(t, body, 1)
	if res.Status != 0 {
		t.Error("trail unwind did not restore the binding")
	}
}

func TestAllocateDeallocateRoundTrip(t *testing.T) {
	body := []bam.Instr{
		{Op: bam.Allocate, N: 2},
		{Op: bam.Move, Dst: r0, Src: bam.IntV(11)},
		{Op: bam.PutY, N: 0, Src: bam.Reg(r0)},
		{Op: bam.Move, Dst: r0, Src: bam.IntV(22)},
		{Op: bam.PutY, N: 1, Src: bam.Reg(r0)},
		{Op: bam.GetY, Dst: r0 + 1, N: 0},
		{Op: bam.BrEq, V1: bam.Reg(r0 + 1), Cond: ic.CondNe, V2: bam.IntV(11), L: 0},
		{Op: bam.GetY, Dst: r0 + 2, N: 1},
		{Op: bam.BrEq, V1: bam.Reg(r0 + 2), Cond: ic.CondNe, V2: bam.IntV(22), L: 0},
		{Op: bam.Deallocate},
		{Op: bam.HaltI, N: 0},
	}
	if res := runBAM(t, body, 0); res.Status != 0 {
		t.Error("environment slots broken")
	}
}

func TestUnifyRoutineAtoms(t *testing.T) {
	tbl := term.NewTable()
	_ = tbl
	// unify(foo, foo) succeeds; unify(foo, bar) fails to $fail → halt 1.
	mk := func(a, b string) []bam.Instr {
		return []bam.Instr{
			{Op: bam.Move, Dst: r0, Src: bam.AtomV(a)},
			{Op: bam.Move, Dst: r0 + 1, Src: bam.AtomV(b)},
			{Op: bam.UnifyCall, Reg1: r0, Reg2: r0 + 1},
			{Op: bam.HaltI, N: 0},
		}
	}
	if res := runBAM(t, mk("foo", "foo"), 0); res.Status != 0 {
		t.Error("unify(foo,foo) must succeed")
	}
	if res := runBAM(t, mk("foo", "bar"), 0); res.Status != 1 {
		t.Error("unify(foo,bar) must fail")
	}
}

func TestUnifyRoutineLists(t *testing.T) {
	// Build [1|X] and [1|2] on the heap and unify: X must become 2.
	body := []bam.Instr{
		// cell X
		{Op: bam.LeaH, Dst: r0, Tag: word.Ref, N: 0},
		{Op: bam.StoreH, N: 0, Src: bam.Reg(r0)},
		{Op: bam.AddH, N: 1},
		// list [1|X]
		{Op: bam.StoreH, N: 0, Src: bam.IntV(1)},
		{Op: bam.StoreH, N: 1, Src: bam.Reg(r0)},
		{Op: bam.LeaH, Dst: r0 + 1, Tag: word.Lst, N: 0},
		{Op: bam.AddH, N: 2},
		// list [1|2]
		{Op: bam.StoreH, N: 0, Src: bam.IntV(1)},
		{Op: bam.StoreH, N: 1, Src: bam.IntV(2)},
		{Op: bam.LeaH, Dst: r0 + 2, Tag: word.Lst, N: 0},
		{Op: bam.AddH, N: 2},
		{Op: bam.UnifyCall, Reg1: r0 + 1, Reg2: r0 + 2},
		{Op: bam.Deref, Dst: r0 + 3, Src: bam.Reg(r0)},
		{Op: bam.BrEq, V1: bam.Reg(r0 + 3), Cond: ic.CondNe, V2: bam.IntV(2), L: 0},
		{Op: bam.HaltI, N: 0},
	}
	if res := runBAM(t, body, 0); res.Status != 0 {
		t.Error("list unification must bind the tail variable")
	}
}

func TestSwitchTagDispatch(t *testing.T) {
	body := []bam.Instr{
		{Op: bam.Move, Dst: r0, Src: bam.IntV(5)},
		{Op: bam.SwitchTag, Reg1: r0, LVar: 1, LInt: 2, LAtm: 1, LLst: 1, LStr: 1},
		{Op: bam.Lbl, L: 1},
		{Op: bam.HaltI, N: 1},
		{Op: bam.Lbl, L: 2},
		{Op: bam.HaltI, N: 0},
	}
	if res := runBAM(t, body, 2); res.Status != 0 {
		t.Error("tag switch must dispatch int to LInt")
	}
}

func TestEntriesRecorded(t *testing.T) {
	prog := translate(t, []bam.Instr{
		{Op: bam.Try, L: 1, N: 0},
		{Op: bam.FailI},
		{Op: bam.Lbl, L: 1},
		{Op: bam.Trust},
		{Op: bam.HaltI, N: 0},
	}, 1)
	// Entry 0, fail pc, $unify, main/0 and the retry label must all be
	// indirect entries.
	if !prog.Entries[prog.FailPC] || !prog.Entries[prog.Procs["main/0"]] {
		t.Error("core entries missing")
	}
	found := false
	for pc := range prog.Entries {
		if pc != 0 && pc != prog.FailPC && pc != prog.Procs["main/0"] &&
			pc != prog.Procs["$unify"] {
			found = true
		}
	}
	if !found {
		t.Error("retry address not recorded as an entry")
	}
}

func TestUndefinedProcError(t *testing.T) {
	code := []bam.Instr{
		{Op: bam.Proc, Name: "main", Arity: 0},
		{Op: bam.Call, Name: "ghost", Arity: 3},
	}
	u := &bam.Unit{Code: code, NumLabels: 1, NextTemp: ic.FirstTemp, Entry: "main/0"}
	if _, err := Translate(u, term.NewTable()); err == nil ||
		!strings.Contains(err.Error(), "ghost") {
		t.Errorf("expected undefined-procedure error, got %v", err)
	}
}

func TestUndefinedLabelError(t *testing.T) {
	code := []bam.Instr{
		{Op: bam.Proc, Name: "main", Arity: 0},
		{Op: bam.Jump, L: 9},
	}
	u := &bam.Unit{Code: code, NumLabels: 10, NextTemp: ic.FirstTemp, Entry: "main/0"}
	if _, err := Translate(u, term.NewTable()); err == nil {
		t.Error("expected undefined-label error")
	}
}
