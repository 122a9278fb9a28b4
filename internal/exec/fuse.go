package exec

import (
	"symbol/internal/ic"
)

// The fusion catalog covers the pairs the BAM expansion emits on its
// hottest paths (internal/expand):
//
//	Ld + BrTag      — the pointer-chase half of deref: load a cell, branch
//	                  on its tag (taken when the chain ends).
//	Ld + BrCmp.eq/ne (reg) — the self-reference test half of deref: load a
//	                  cell and compare it against the address register to
//	                  detect an unbound variable.
//	GetTag + BrCmp.eq/ne (imm) — explicit tag-test-and-branch (switch_on_tag
//	                  shapes and hand-written IC).
//	St + Add (imm, d==a) — bump-allocate: store through H/TR/ESP and advance
//	                  the pointer. Survives rename.Fold at block boundaries.
//	Mov + Jmp       — the deref loop tail (advance the chase register and
//	                  jump back to the loop head).
//	BrCmp(target=pc+2) + Mov — compare-and-move: the max(EB,ESP) sequence in
//	Try/Allocate/pushFrame, a two-ICI conditional move.
//
// Beyond the branch shapes, the dynamically hottest adjacent pairs in the
// BAM expansion are memory runs: choice-point push (St+St... then the H/TR
// bump), choice-point restore on backtracking (Ld+Ld...), argument setup
// and environment shuffling (Mov+Mov, MovI+St, St+MovI), and the
// move-then-dispatch tails (Mov+BrTag, Mov+Jmp). Those all fuse too:
//
//	Ld + Ld, Ld + Mov        — restore runs
//	St + St, St + MovI, MovI + St — push / write-constant runs
//	Mov + Mov                — register shuffles
//	Mov + BrTag              — move-then-tag-dispatch
//
// MkTag+Br* is in the paper's hot set but this code generator never emits
// it adjacently; it is intentionally absent (a MkTag result is always
// stored or passed, not branched on).
//
// Legality: the caller guarantees the second constituent's pc is not a jump
// target (see jumpTargets), so control can only enter the pair at its head.
// Within a pair the constituents execute in original order with original
// semantics, so memory faults, fault pcs and step accounting can be
// replayed exactly (the executors handle the split points explicitly).

// fusePair attempts to fuse the adjacent ICIs a (at pc) and b (at pc+1)
// into one superinstruction.
func fusePair(a, b *ic.Inst, pc int) (Op, bool) {
	// Decode-altering marks (choice-point push, trail-entry fetch) map to
	// their own single opcodes in Decode1 so the dispatch counters can see
	// them; burying one inside a superinstruction would lose the count.
	// MarkCPPop fuses freely — Trust's Ld+Ld stays a superinstruction on the
	// hot backtrack path; pops only matter to the event trace, which runs on
	// the legacy loop and reads ic.Inst.Mark directly.
	if a.Mark == ic.MarkCPPush || a.Mark == ic.MarkTrailUndo ||
		b.Mark == ic.MarkCPPush || b.Mark == ic.MarkTrailUndo {
		return Op{}, false
	}
	switch a.Op {
	case ic.Ld:
		switch b.Op {
		case ic.BrTag:
			code := XFLdBrTagEq
			if b.Cond == ic.CondNe {
				code = XFLdBrTagNe
			}
			return Op{
				Code: code, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Imm: a.Imm,
				D2: b.A, Tag: b.Tag, Target: int32(b.Target),
			}, true
		case ic.BrCmp:
			if b.HasImm || (b.Cond != ic.CondEq && b.Cond != ic.CondNe) {
				break
			}
			code := XFLdBrCmpEqR
			if b.Cond == ic.CondNe {
				code = XFLdBrCmpNeR
			}
			return Op{
				Code: code, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Imm: a.Imm,
				D2: b.A, A2: b.B, Target: int32(b.Target),
			}, true
		case ic.Ld:
			return Op{
				Code: XFLdLd, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Imm: a.Imm,
				D2: b.D, A2: b.A, Imm2: b.Imm,
			}, true
		case ic.Mov:
			return Op{
				Code: XFLdMov, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Imm: a.Imm,
				D2: b.D, A2: b.A,
			}, true
		}
	case ic.GetTag:
		if b.Op == ic.BrCmp && b.HasImm && (b.Cond == ic.CondEq || b.Cond == ic.CondNe) {
			code := XFGetTagBrEqI
			if b.Cond == ic.CondNe {
				code = XFGetTagBrNeI
			}
			return Op{
				Code: code, Width: 2, PC: int32(pc),
				D: a.D, A: a.A,
				D2: b.A, W: b.Word, Target: int32(b.Target),
			}, true
		}
	case ic.St:
		switch b.Op {
		case ic.Add:
			if b.HasImm && b.D == b.A {
				return Op{
					Code: XFStAdd, Width: 2, PC: int32(pc),
					A: a.A, B: a.B, Imm: a.Imm, Region: a.Reg,
					D2: b.D, Imm2: b.Imm,
				}, true
			}
		case ic.St:
			return Op{
				Code: XFStSt, Width: 2, PC: int32(pc),
				A: a.A, B: a.B, Imm: a.Imm, Region: a.Reg,
				A2: b.A, D2: b.B, Imm2: b.Imm, Region2: b.Reg,
			}, true
		case ic.MovI:
			return Op{
				Code: XFStMovI, Width: 2, PC: int32(pc),
				A: a.A, B: a.B, Imm: a.Imm, Region: a.Reg,
				D2: b.D, W: b.Word,
			}, true
		}
	case ic.MovI:
		if b.Op == ic.St {
			return Op{
				Code: XFMovISt, Width: 2, PC: int32(pc),
				D: a.D, W: a.Word,
				A2: b.A, D2: b.B, Imm2: b.Imm, Region2: b.Reg,
			}, true
		}
	case ic.Mov:
		switch b.Op {
		case ic.Jmp:
			return Op{
				Code: XFMovJmp, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Target: int32(b.Target),
			}, true
		case ic.Mov:
			return Op{
				Code: XFMovMov, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, D2: b.D, A2: b.A,
			}, true
		case ic.BrTag:
			code := XFMovBrTagEq
			if b.Cond == ic.CondNe {
				code = XFMovBrTagNe
			}
			return Op{
				Code: code, Width: 2, PC: int32(pc),
				D: a.D, A: a.A,
				D2: b.A, Tag: b.Tag, Target: int32(b.Target),
			}, true
		}
	case ic.BrCmp:
		// Compare-and-move: a branch that skips exactly the following Mov.
		// "Taken" means the move is skipped; either way control falls
		// through to pc+2, so the fused op has no Target.
		if !a.HasImm && a.Target == pc+2 && b.Op == ic.Mov {
			return Op{
				Code: XFCMovR, Width: 2, PC: int32(pc),
				A: a.A, B: a.B, Cond: a.Cond,
				D2: b.D, A2: b.A,
			}, true
		}
	}
	return Op{}, false
}
