package cfg

import (
	"testing"

	"symbol/internal/emu"
	"symbol/internal/ic"
	"symbol/internal/term"
)

var (
	rA = ic.ArgReg(0)
	rB = ic.ArgReg(1)
)

const (
	t0 = ic.FirstTemp
	t1 = ic.FirstTemp + 1
)

func mkProg(code []ic.Inst, entries ...int) *ic.Program {
	e := map[int]bool{0: true}
	for _, x := range entries {
		e[x] = true
	}
	return &ic.Program{
		Code:    code,
		Atoms:   term.NewTable(),
		Procs:   map[string]int{},
		Names:   map[int]string{},
		Entries: e,
	}
}

// diamond: 0:brcmp→3 / 1:mov 2:jmp→4 / 3:mov / 4:halt
func diamond() *ic.Program {
	return mkProg([]ic.Inst{
		{Op: ic.BrCmp, A: rA, Cond: ic.CondEq, HasImm: true, Imm: 0, Target: 3},
		{Op: ic.Mov, D: t0, A: rA},
		{Op: ic.Jmp, Target: 4},
		{Op: ic.Mov, D: t0, A: rB},
		{Op: ic.Halt},
	})
}

func TestDiamondStructure(t *testing.T) {
	g, err := Build(diamond(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	b0 := g.BlockOf(0)
	if len(b0.Succs) != 2 {
		t.Fatalf("branch block needs 2 successors, got %v", b0.Succs)
	}
	// Fall-through first.
	if g.Blocks[b0.Succs[0]].Start != 1 || g.Blocks[b0.Succs[1]].Start != 3 {
		t.Errorf("successor order wrong: %v", b0.Succs)
	}
	join := g.BlockOf(4)
	if len(join.Preds) != 2 {
		t.Errorf("join block needs 2 predecessors, got %v", join.Preds)
	}
}

func TestLivenessDiamond(t *testing.T) {
	g, err := Build(diamond(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b0 := g.BlockOf(0)
	// rA is read on the branch and on the left path; rB on the right path:
	// both live into the branch block.
	if !b0.LiveIn[rA] || !b0.LiveIn[rB] {
		t.Errorf("liveIn(b0) = %v", b0.LiveIn)
	}
	// t0 is dead at the halt block.
	if g.BlockOf(4).LiveIn[t0] {
		t.Error("t0 must be dead at halt")
	}
	// t0 is NOT live into block 3 before its own def... it is defined there:
	if g.BlockOf(3).LiveIn[t0] {
		t.Error("t0 defined before use in block 3")
	}
}

func TestBoundaryLiveAtReturn(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Mov, D: t0, A: rA},
		{Op: ic.JmpR, A: ic.RegCP},
	})
	g, err := Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := g.BlockOf(0)
	// Machine state and argument registers are conservatively live at the
	// indirect jump; temporaries are not.
	if !b.LiveOut[ic.RegH] || !b.LiveOut[ic.RegB] || !b.LiveOut[rA] {
		t.Errorf("boundary live set missing registers: %v", b.LiveOut)
	}
	if b.LiveOut[t0] || b.LiveOut[t1] {
		t.Error("temporaries must be dead at indirect boundaries")
	}
}

func TestIndirectEntriesStartBlocks(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Mov, D: t0, A: rA},
		{Op: ic.Mov, D: t1, A: rB}, // pc 1 is an indirect entry
		{Op: ic.Halt},
	}, 1)
	g, err := Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := g.ByStart[1]
	if b == nil || !b.Indirect {
		t.Fatal("pc 1 must start an indirect block")
	}
}

func TestWeightsFromProfile(t *testing.T) {
	p := diamond()
	prof := &emu.Profile{
		Expect: []int64{10, 7, 7, 3, 10},
		Taken:  []int64{3, 0, 7, 0, 0},
	}
	g, err := Build(p, prof)
	if err != nil {
		t.Fatal(err)
	}
	if g.BlockOf(1).Weight != 7 || g.BlockOf(3).Weight != 3 {
		t.Error("block weights must come from the profile")
	}
	pr, ok := g.BranchProbability(prof, g.BlockOf(0))
	if !ok || pr != 0.3 {
		t.Errorf("probability = %v, %v", pr, ok)
	}
}

func TestLoopLiveness(t *testing.T) {
	// 0: mov t0, a0 ; 1: add t0,t0,-1 ; 2: brcmp t0 gt 0 → 1 ; 3: halt
	p := mkProg([]ic.Inst{
		{Op: ic.Mov, D: t0, A: rA},
		{Op: ic.Add, D: t0, A: t0, HasImm: true, Imm: -1},
		{Op: ic.BrCmp, A: t0, Cond: ic.CondGt, HasImm: true, Imm: 0, Target: 1},
		{Op: ic.Halt},
	})
	g, err := Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := g.BlockOf(1)
	if !loop.LiveIn[t0] {
		t.Error("loop-carried register must be live at the loop head")
	}
	if len(loop.Preds) != 2 {
		t.Errorf("loop head needs 2 preds, got %v", loop.Preds)
	}
}

func TestInvalidTarget(t *testing.T) {
	p := mkProg([]ic.Inst{{Op: ic.Jmp, Target: 99}})
	if _, err := Build(p, nil); err == nil {
		t.Error("expected error for out-of-range branch target")
	}
}
