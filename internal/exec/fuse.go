package exec

import (
	"symbol/internal/ic"
)

// The fusion catalog holds the adjacent ICI pairs the BAM expansion
// (internal/expand) runs most, measured as dispatches over one fused run of
// each corpus program (DESIGN.md §8 has the table). There are eleven:
//
//	Ld + BrCmp.eq (reg) — the self-reference test of deref: load a cell
//	                  and compare it against the address register.
//	Mov + Jmp       — the deref loop tail: advance the chase register and
//	                  jump back to the loop head.
//	Mov + BrTag.eq  — move, then dispatch on a tag.
//	BrCmp(target=pc+2) + Mov — compare-and-move: the max(EB,ESP) sequence
//	                  in Try/Allocate/pushFrame, a two-ICI conditional move.
//	St + Add (imm, d==a) — bump-allocate: store through H/TR/ESP and advance
//	                  the pointer. Survives rename.Fold at block boundaries.
//	Ld + Ld, Ld + Mov        — choice-point restore runs
//	St + St, St + MovI, MovI + St — choice-point push and write-constant runs
//	Mov + Mov                — argument and environment register shuffles
//
// A pair stays in the catalog only while the corpus dispatches it at least
// a thousand times (TestFusedCatalogExecutes in internal/emu): each one is
// a case of its own in the emulator's fused loop. That rule left out
// Ld+BrTag, Ld+BrCmp.ne, GetTag+BrCmp (imm) and Mov+BrTag.ne, which the
// code generator emits rarely or never; MkTag+Br*, in the paper's hot set,
// is never emitted adjacently (a MkTag result is stored or passed, not
// branched on). Their constituents run as single ops.
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
		case ic.BrCmp:
			if !b.HasImm && b.Cond == ic.CondEq {
				return Op{
					Code: XFLdBrCmpEqR, Width: 2, PC: int32(pc),
					D: a.D, A: a.A, Imm: a.Imm,
					D2: b.A, A2: b.B, Target: int32(b.Target),
				}, true
			}
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
			// Every condition but Ne means Eq (see Decode1).
			if b.Cond != ic.CondNe {
				return Op{
					Code: XFMovBrTagEq, Width: 2, PC: int32(pc),
					D: a.D, A: a.A,
					D2: b.A, Tag: b.Tag, Target: int32(b.Target),
				}, true
			}
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
