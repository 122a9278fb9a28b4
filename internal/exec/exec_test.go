package exec

import (
	"sync"
	"testing"

	"symbol/internal/ic"
	"symbol/internal/term"
	"symbol/internal/word"
)

const (
	t0 = ic.FirstTemp
	t1 = ic.FirstTemp + 1
	t2 = ic.FirstTemp + 2
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

// TestDecode1Splits checks that the selector fields of ic.Inst become
// distinct opcodes: the run loops rely on never having to test HasImm,
// Cond or Sys again.
func TestDecode1Splits(t *testing.T) {
	cases := []struct {
		in   ic.Inst
		want XCode
	}{
		{ic.Inst{Op: ic.Add, D: t0, A: t0, B: t1}, XAddR},
		{ic.Inst{Op: ic.Add, D: t0, A: t0, HasImm: true, Imm: 3}, XAddI},
		{ic.Inst{Op: ic.Div, D: t0, A: t0, B: t1}, XDivR},
		{ic.Inst{Op: ic.Shr, D: t0, A: t0, HasImm: true, Imm: 1}, XShrI},
		{ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, B: t1}, XBrCmpEqR},
		{ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, HasImm: true, Word: word.MakeInt(1)}, XBrCmpNeI},
		{ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondLe, HasImm: true, Imm: 7}, XBrCmpOrdI},
		{ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondGt, B: t1}, XBrCmpOrdR},
		{ic.Inst{Op: ic.BrTag, A: t0, Tag: word.Lst}, XBrTagEq},
		{ic.Inst{Op: ic.BrTag, A: t0, Cond: ic.CondNe, Tag: word.Ref}, XBrTagNe},
		{ic.Inst{Op: ic.SysOp, Sys: ic.SysWrite, A: t0}, XSysWrite},
		{ic.Inst{Op: ic.SysOp, Sys: ic.SysNl}, XSysNl},
		{ic.Inst{Op: ic.SysOp, Sys: ic.SysID(99)}, XSysBad},
		{ic.Inst{Op: ic.Op(200)}, XUnknown},
	}
	for _, c := range cases {
		op := Decode1(&c.in, 0)
		if op.Code != c.want {
			t.Errorf("%s decodes to %s, want %s", c.in.String(), op.Code, c.want)
		}
		if op.Width != 1 {
			t.Errorf("%s has width %d, want 1", c.in.String(), op.Width)
		}
	}
}

// TestFusionCatalog drives each catalog shape through Predecode and checks
// the resulting superinstruction, its operands, and the stream bookkeeping
// (XOf interior marking, stats, width). Rows that want no code are pairs
// the catalog leaves out: both constituents must stay single ops.
func TestFusionCatalog(t *testing.T) {
	halt := ic.Inst{Op: ic.Halt}
	cases := []struct {
		name string
		a, b ic.Inst
		want XCode // 0: the pair does not fuse
	}{
		{"ld+brtag", ic.Inst{Op: ic.Ld, D: t0, A: t1, Imm: 2},
			ic.Inst{Op: ic.BrTag, A: t0, Tag: word.Ref, Target: 3}, 0},
		{"ld+brtag.ne", ic.Inst{Op: ic.Ld, D: t0, A: t1},
			ic.Inst{Op: ic.BrTag, A: t0, Cond: ic.CondNe, Tag: word.Ref, Target: 3}, 0},
		{"ld+brcmp.eq.r", ic.Inst{Op: ic.Ld, D: t0, A: t1},
			ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, B: t1, Target: 3}, 0},
		{"ld+brcmp.ne.r", ic.Inst{Op: ic.Ld, D: t0, A: t1},
			ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, B: t1, Target: 3}, 0},
		{"gettag+br.eq.i", ic.Inst{Op: ic.GetTag, D: t0, A: t1},
			ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, HasImm: true,
				Word: word.MakeInt(int64(word.Lst)), Target: 3}, 0},
		{"gettag+br.ne.i", ic.Inst{Op: ic.GetTag, D: t0, A: t1},
			ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondNe, HasImm: true,
				Word: word.MakeInt(int64(word.Lst)), Target: 3}, 0},
		{"st+add", ic.Inst{Op: ic.St, A: ic.RegH, B: t0, Reg: ic.RegionHeap},
			ic.Inst{Op: ic.Add, D: ic.RegH, A: ic.RegH, HasImm: true, Imm: 1}, XFStAdd},
		{"mov+jmp", ic.Inst{Op: ic.Mov, D: t0, A: t1},
			ic.Inst{Op: ic.Jmp, Target: 0}, XFMovJmp},
		{"cmov", ic.Inst{Op: ic.BrCmp, A: t0, Cond: ic.CondGe, B: t1, Target: 3},
			ic.Inst{Op: ic.Mov, D: t0, A: t1}, XFCMovR},
		{"ld+ld", ic.Inst{Op: ic.Ld, D: t0, A: t1, Imm: 2},
			ic.Inst{Op: ic.Ld, D: t1, A: t0, Imm: 3}, XFLdLd},
		{"ld+mov", ic.Inst{Op: ic.Ld, D: t0, A: t1, Imm: 2},
			ic.Inst{Op: ic.Mov, D: t1, A: t0}, XFLdMov},
		{"st+st", ic.Inst{Op: ic.St, A: ic.RegH, B: t0, Reg: ic.RegionHeap},
			ic.Inst{Op: ic.St, A: ic.RegH, B: t1, Imm: 1, Reg: ic.RegionHeap}, XFStSt},
		{"st+movi", ic.Inst{Op: ic.St, A: ic.RegH, B: t0, Reg: ic.RegionHeap},
			ic.Inst{Op: ic.MovI, D: t1, Word: word.MakeInt(7)}, XFStMovI},
		{"movi+st", ic.Inst{Op: ic.MovI, D: t0, Word: word.MakeInt(7)},
			ic.Inst{Op: ic.St, A: ic.RegH, B: t0, Reg: ic.RegionHeap}, XFMovISt},
		{"mov+mov", ic.Inst{Op: ic.Mov, D: t0, A: t1},
			ic.Inst{Op: ic.Mov, D: t1, A: t0}, XFMovMov},
		{"mov+brtag", ic.Inst{Op: ic.Mov, D: t0, A: t1},
			ic.Inst{Op: ic.BrTag, A: t0, Tag: word.Ref, Target: 3}, XFMovBrTagEq},
		{"mov+brtag.ne", ic.Inst{Op: ic.Mov, D: t0, A: t1},
			ic.Inst{Op: ic.BrTag, A: t0, Cond: ic.CondNe, Tag: word.Ref, Target: 3}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// pc 0 is always a jump target (entry), so the pair sits at 1,2.
			p := mkProg([]ic.Inst{{Op: ic.Nop}, c.a, c.b, halt})
			xp := Predecode(p)
			x := xp.Fused.XOf[1]
			if x < 0 {
				t.Fatal("pair head has no stream index")
			}
			op := xp.Fused.Ops[x]
			if c.want == 0 {
				if op.Code.Fused() || xp.Fused.XOf[2] != x+1 || xp.Stats.FusedOps != xp.Stats.PlainOps {
					t.Fatalf("fused to %s (XOf[2] %d, %d of %d ops), want single ops",
						op.Code, xp.Fused.XOf[2], xp.Stats.FusedOps, xp.Stats.PlainOps)
				}
				return
			}
			if op.Code != c.want {
				t.Fatalf("fused to %s, want %s", op.Code, c.want)
			}
			if op.Width != 2 || !op.Code.Fused() {
				t.Fatalf("fused op has width %d, Fused()=%v", op.Width, op.Code.Fused())
			}
			if op.PC != 1 {
				t.Fatalf("fused op PC = %d, want 1", op.PC)
			}
			if xp.Fused.XOf[2] != -1 {
				t.Fatalf("interior pc 2 has XOf %d, want -1", xp.Fused.XOf[2])
			}
			if got := xp.Stats.Supers[c.want]; got != 1 {
				t.Fatalf("Stats.Supers[%s] = %d, want 1", c.want, got)
			}
			if xp.Stats.FusedOps != xp.Stats.PlainOps-1 {
				t.Fatalf("FusedOps = %d, want PlainOps-1 = %d",
					xp.Stats.FusedOps, xp.Stats.PlainOps-1)
			}
			// Lookup on the interior must route to a trap, not mid-pair.
			if ti := xp.Fused.Lookup(2); xp.Fused.Ops[ti].Code != XBadPC {
				t.Fatalf("Lookup(interior) resolved to %s", xp.Fused.Ops[ti].Code)
			}
		})
	}
}

// TestFusionBlockedByJumpTarget: a pair whose second pc is reachable by a
// branch must not fuse, or the branch could land mid-superinstruction.
func TestFusionBlockedByJumpTarget(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.Mov, D: t0, A: t1}, // pc 1: head of a would-be mov+jmp pair
		{Op: ic.Jmp, Target: 1},    // pc 2: also a branch target (see pc 3)
		{Op: ic.BrCmp, A: t0, Cond: ic.CondEq, B: t1, Target: 2}, // marks pc 2
		{Op: ic.Halt},
	})
	xp := Predecode(p)
	x := xp.Fused.XOf[1]
	if op := xp.Fused.Ops[x]; op.Code.Fused() {
		t.Fatalf("pair fused to %s despite pc 2 being a jump target", op.Code)
	}
	if xp.Fused.XOf[2] < 0 {
		t.Fatal("jump-target pc 2 lost its stream index")
	}
}

// TestFusionBlockedByIndirectTargets: code addresses materialized by MovI
// (choice-point retry addresses) are indirect jump targets and must stay
// addressable; a marked pc blocks fusion only as the second constituent —
// as a pair head it is still the superinstruction's own address.
func TestFusionBlockedByIndirectTargets(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.Jsr, D: t2, Target: 4}, // pc 1: marks pc 2 as a return point
		{Op: ic.Mov, D: t0, A: t1},     // pc 2: marked, but as pair *head*
		{Op: ic.Jmp, Target: 4},
		{Op: ic.Halt},
	})
	xp := Predecode(p)
	if op := xp.Fused.Ops[xp.Fused.XOf[2]]; op.Code != XFMovJmp {
		t.Fatalf("marked pair head decoded to %s, want f.mov+jmp (heads may fuse)", op.Code)
	}

	p = mkProg([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.MovI, D: t2, Word: word.Make(word.Code, 3)}, // marks pc 3
		{Op: ic.Mov, D: t0, A: t1},                          // pc 2: head
		{Op: ic.Jmp, Target: 4},                             // pc 3: marked
		{Op: ic.Halt},
	})
	xp = Predecode(p)
	if op := xp.Fused.Ops[xp.Fused.XOf[2]]; op.Code.Fused() {
		t.Fatalf("pair fused to %s despite pc 3 being MovI-addressable", op.Code)
	}
}

// derefLoop is expand's dereference loop (bam.Deref) on t0 with temp t1,
// behind Mov t0, t2, laid out from pc 1: the Mov at 1, the loop head at 2,
// the exit at 7. extra ICIs follow the exit.
func derefLoop(extra ...ic.Inst) []ic.Inst {
	return append([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.Mov, D: t0, A: t2},
		{Op: ic.BrTag, A: t0, Cond: ic.CondNe, Tag: word.Ref, Target: 7},
		{Op: ic.Ld, D: t1, A: t0, Reg: ic.RegionHeap},
		{Op: ic.BrCmp, A: t1, Cond: ic.CondEq, B: t0, Target: 7},
		{Op: ic.Mov, D: t0, A: t1},
		{Op: ic.Jmp, Target: 2},
		{Op: ic.Halt},
	}, extra...)
}

// TestFuseDeref: the dereference loop is one op, with the Mov before it
// when the loop's own Jmp is the only way into its head; the Mov stays
// separate when something else refers to the head, and the loop stays
// unfused when anything refers to a pc inside it.
func TestFuseDeref(t *testing.T) {
	xp := Predecode(mkProg(derefLoop()))
	op := xp.Fused.Ops[xp.Fused.XOf[1]]
	want := Op{Code: XFMovDeref, Width: 6, PC: 1, D: t0, A: t2, D2: t1, Tag: word.Ref}
	if op != want {
		t.Fatalf("mov+deref decoded to %+v, want %+v", op, want)
	}
	for pc := 2; pc <= 6; pc++ {
		if xp.Fused.XOf[pc] != -1 {
			t.Fatalf("interior pc %d has XOf %d, want -1", pc, xp.Fused.XOf[pc])
		}
	}
	if xp.Fused.XOf[7] != xp.Fused.XOf[1]+1 || xp.Stats.Supers[XFMovDeref] != 1 ||
		xp.Stats.FusedOps != xp.Stats.PlainOps-5 {
		t.Fatalf("exit XOf %d, Supers %d, %d of %d ops", xp.Fused.XOf[7],
			xp.Stats.Supers[XFMovDeref], xp.Stats.FusedOps, xp.Stats.PlainOps)
	}

	// A second referrer of the head (a branch, a MovI of its address or
	// a procedure entry) keeps the Mov out: the loop fuses on its own.
	for name, extra := range map[string]ic.Inst{
		"branch": {Op: ic.Jmp, Target: 2},
		"movi":   {Op: ic.MovI, D: t2, Word: word.Make(word.Code, 2)},
	} {
		xp := Predecode(mkProg(derefLoop(extra)))
		mov, loop := xp.Fused.Ops[xp.Fused.XOf[1]], xp.Fused.Ops[xp.Fused.XOf[2]]
		if mov.Code != XMov || loop.Code != XFDeref || loop.Width != 5 || loop.PC != 2 {
			t.Fatalf("%s: head referred twice decoded to %s, %s (width %d, pc %d), want mov, f.deref",
				name, mov.Code, loop.Code, loop.Width, loop.PC)
		}
	}
	p := mkProg(derefLoop())
	p.Entries[2] = true
	if op := Predecode(p).Fused.Ops[1].Code; op != XMov {
		t.Fatalf("head as an entry: pc 1 decoded to %s, want mov", op)
	}

	// Any referrer inside the loop leaves it to single ops and pairs.
	for pc := 3; pc <= 6; pc++ {
		xp := Predecode(mkProg(derefLoop(ic.Inst{Op: ic.Jmp, Target: pc})))
		for _, op := range xp.Fused.Ops {
			if op.Code == XFDeref || op.Code == XFMovDeref {
				t.Fatalf("referrer of pc %d: pc %d decoded to %s", pc, op.PC, op.Code)
			}
		}
		if xp.Fused.XOf[pc] < 0 {
			t.Fatalf("referred pc %d lost its stream index", pc)
		}
	}
}

// TestTrapTargets: a statically out-of-range branch target must resolve to
// a trap op carrying the original invalid pc, and Lookup of out-of-range
// pcs must land on the fall-off trap. Predecode sizes the fused stream
// for its traps up front: one per out-of-range target, single or fused,
// and none for a compare-and-move whose skip target lies past the end.
func TestTrapTargets(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.Jmp, Target: -1},
		{Op: ic.Mov, D: t0, A: t1},
		{Op: ic.Jmp, Target: 99},
		{Op: ic.Halt},
		{Op: ic.BrCmp, A: t0, B: t1, Cond: ic.CondEq, Target: 7},
		{Op: ic.Mov, D: t2, A: t0},
	})
	xp := Predecode(p)
	if got := xp.Fused.Ops[xp.Fused.XOf[2]]; got.Code != XFMovJmp || xp.Fused.Ops[got.Target].Imm != 99 {
		t.Fatalf("mov+jmp fused to %s with target imm %d, want %s to a trap for pc 99",
			got.Code, xp.Fused.Ops[got.Target].Imm, XFMovJmp)
	}
	if got := xp.Fused.Ops[xp.Fused.XOf[5]].Code; got != XFCMovR {
		t.Fatalf("brcmp+mov fused to %s, want %s", got, XFCMovR)
	}
	if len(xp.Fused.Ops) != 8 || cap(xp.Fused.Ops) != len(xp.Fused.Ops) {
		t.Fatalf("fused stream len %d cap %d, want 5 ops and 3 traps exactly",
			len(xp.Fused.Ops), cap(xp.Fused.Ops))
	}
	for _, s := range []*Stream{xp.Plain(), &xp.Fused} {
		jmp := s.Ops[s.XOf[1]]
		trap := s.Ops[jmp.Target]
		if trap.Code != XBadPC {
			t.Fatalf("out-of-range target resolved to %s", trap.Code)
		}
		if trap.Imm != -1 {
			t.Fatalf("trap carries pc %d, want -1", trap.Imm)
		}
		if trap.PC != 1 {
			t.Fatalf("trap reports from pc %d, want 1", trap.PC)
		}
		for _, pc := range []int{-7, len(p.Code), len(p.Code) + 12} {
			ti := s.Lookup(pc)
			if op := s.Ops[ti]; op.Code != XBadPC || op.Imm != int64(len(p.Code)) {
				t.Fatalf("Lookup(%d) = %s imm %d", pc, op.Code, op.Imm)
			}
		}
	}
}

// TestStreamIdentity: the plain stream is index-identical to the code
// (XOf[pc] == pc) so JmpR resolution in the NoFuse path is the identity.
func TestStreamIdentity(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.MovI, D: t0, Word: word.MakeInt(5)},
		{Op: ic.Halt},
	})
	xp := Predecode(p)
	for pc := range p.Code {
		if xp.Plain().XOf[pc] != int32(pc) {
			t.Fatalf("plain XOf[%d] = %d", pc, xp.Plain().XOf[pc])
		}
	}
	if xp.Plain().Entry != int32(p.Entry) {
		t.Fatalf("plain entry %d, want %d", xp.Plain().Entry, p.Entry)
	}
	if xp.Plain().Throw != -1 {
		t.Fatalf("throwless program has Throw %d, want -1", xp.Plain().Throw)
	}
}

// TestPlainIsLazy: Predecode builds the fused stream only; the plain
// stream is built once, on the first Plain call, however many goroutines
// ask for it at once.
func TestPlainIsLazy(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Nop},
		{Op: ic.MovI, D: t0, Word: word.MakeInt(5)},
		{Op: ic.Halt},
	})
	xp := Predecode(p)
	if xp.plain.Ops != nil {
		t.Fatal("Predecode built the plain stream")
	}
	got := make([]*Stream, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = xp.Plain()
		}()
	}
	wg.Wait()
	for _, s := range got {
		if s != got[0] {
			t.Fatal("Plain built the stream more than once")
		}
	}
	if n := len(got[0].Ops); n != len(p.Code)+1 {
		t.Fatalf("plain stream has %d ops, want %d (one per ICI plus the trap)", n, len(p.Code)+1)
	}
}

// TestOfCaches: Of must predecode once per program and hand every caller
// the same image.
func TestOfCaches(t *testing.T) {
	p := mkProg([]ic.Inst{{Op: ic.Halt}})
	if a, b := Of(p), Of(p); a != b {
		t.Fatal("Of rebuilt the execution image")
	}
}
