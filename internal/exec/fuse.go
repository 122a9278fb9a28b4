package exec

import (
	"symbol/internal/ic"
)

// The fusion catalog holds the BAM expansion's (internal/expand) hottest
// adjacent ICI runs, measured as dispatches over one fused run of each
// corpus program (DESIGN.md §8 has the table).
//
// The dereference loop bam.Deref expands to is one op: the tag test, the
// load, the self-reference test, the advance and the back edge (XFDeref),
// with the Mov that loads the chase register folded in when the loop's
// own Jmp is the only way into its head (XFMovDeref). The executor runs
// the chase as an inner loop, so a dereference costs one dispatch however
// long the chain.
//
// Ten pairs:
//
//	Mov + Jmp       — move, then jump.
//	Mov + BrTag.eq  — move, then dispatch on a tag.
//	BrCmp(target=pc+2) + Mov — compare-and-move: the max(EB,ESP) sequence
//	                  in Try/Allocate/pushFrame, a two-ICI conditional move.
//	St + Add (imm, d==a) — bump-allocate: store through H/TR/ESP and advance
//	                  the pointer. Survives rename.Fold at block boundaries.
//	Ld + Ld, Ld + Mov        — choice-point restore runs
//	St + St, St + MovI, MovI + St — choice-point push and write-constant runs
//	Mov + Mov                — argument and environment register shuffles
//
// A superinstruction stays in the catalog only while the corpus dispatches
// it at least a thousand times (TestFusedCatalogExecutes in internal/emu):
// each one is a case of its own in the emulator's fused loop. That rule
// left out Ld+BrTag, Ld+BrCmp (reg; the eq form ran only inside the
// dereference loop, which is one op now), GetTag+BrCmp (imm) and
// Mov+BrTag.ne, which the code generator emits rarely or never; MkTag+Br*,
// in the paper's hot set, is never emitted adjacently (a MkTag result is
// stored or passed, not branched on). Their constituents run as single ops.
//
// Legality: no pc inside a superinstruction is a jump target (see
// referrers) except a dereference loop's head, whose back edge the op runs
// itself, so control can only enter the op at its first pc. Within an op
// the constituents execute in original order with original semantics, so
// memory faults, fault pcs and step accounting can be replayed exactly (the
// executors handle the split points explicitly).

// fuse reports whether a superinstruction starts at pc, a dereference loop
// or else a pair whose second pc nothing refers to, and stores it in *op.
func fuse(code []ic.Inst, pc int, refs []uint8, op *Op) bool {
	if c := code[pc].Op; (c == ic.Mov || c == ic.BrTag) && fuseDeref(code, pc, refs, op) {
		return true
	}
	return pc+1 < len(code) && refs[pc+1] == 0 && fusePair(&code[pc], &code[pc+1], pc, op)
}

// fuseDeref matches the dereference loop at pc (see XFDeref) into *op:
// exactly the shape expand emits for bam.Deref, unmarked, with out the pc
// after the Jmp, and nothing referring to the four pcs after the head. A
// Mov at pc that loads the chase register joins the op when the loop's Jmp
// is the head's only referrer.
func fuseDeref(code []ic.Inst, pc int, refs []uint8, op *Op) bool {
	h, mov := pc, code[pc].Op == ic.Mov
	if mov {
		h++
	}
	if h+5 > len(code) || code[h].Op != ic.BrTag || code[h].Cond != ic.CondNe {
		return false
	}
	if mov && (refs[h] != 1 || code[pc].Mark != ic.MarkNone || code[pc].D != code[h].A) {
		return false
	}
	top, ld, cmp, adv, jmp := &code[h], &code[h+1], &code[h+2], &code[h+3], &code[h+4]
	d, t, out := top.A, ld.D, h+5
	if top.Target != out ||
		ld.Op != ic.Ld || ld.A != d || t == d ||
		cmp.Op != ic.BrCmp || cmp.HasImm || cmp.Cond != ic.CondEq || cmp.A != t || cmp.B != d || cmp.Target != out ||
		adv.Op != ic.Mov || adv.D != d || adv.A != t ||
		jmp.Op != ic.Jmp || jmp.Target != h {
		return false
	}
	for i := h; i < out; i++ {
		if code[i].Mark != ic.MarkNone || i > h && refs[i] != 0 {
			return false
		}
	}
	*op = Op{Code: XFDeref, Width: 5, PC: int32(pc), D: d, D2: t, Imm: ld.Imm, Tag: top.Tag}
	if mov {
		op.Code, op.Width, op.A = XFMovDeref, 6, code[pc].A
	}
	return true
}

// fusePair attempts to fuse the adjacent ICIs a (at pc) and b (at pc+1)
// into one superinstruction, stored in *op.
func fusePair(a, b *ic.Inst, pc int, op *Op) bool {
	// Decode-altering marks (choice-point push, trail-entry fetch) map to
	// their own single opcodes in Decode1 so the dispatch counters can see
	// them; burying one inside a superinstruction would lose the count.
	// MarkCPPop fuses freely — Trust's Ld+Ld stays a superinstruction on the
	// hot backtrack path; pops only matter to the event trace, which runs on
	// the legacy loop and reads ic.Inst.Mark directly.
	if a.Mark == ic.MarkCPPush || a.Mark == ic.MarkTrailUndo ||
		b.Mark == ic.MarkCPPush || b.Mark == ic.MarkTrailUndo {
		return false
	}
	switch a.Op {
	case ic.Ld:
		switch b.Op {
		case ic.Ld:
			*op = Op{
				Code: XFLdLd, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Imm: a.Imm,
				D2: b.D, A2: b.A, Imm2: b.Imm,
			}
			return true
		case ic.Mov:
			*op = Op{
				Code: XFLdMov, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Imm: a.Imm,
				D2: b.D, A2: b.A,
			}
			return true
		}
	case ic.St:
		switch b.Op {
		case ic.Add:
			if b.HasImm && b.D == b.A {
				*op = Op{
					Code: XFStAdd, Width: 2, PC: int32(pc),
					A: a.A, B: a.B, Imm: a.Imm, Region: a.Reg,
					D2: b.D, Imm2: b.Imm,
				}
				return true
			}
		case ic.St:
			*op = Op{
				Code: XFStSt, Width: 2, PC: int32(pc),
				A: a.A, B: a.B, Imm: a.Imm, Region: a.Reg,
				A2: b.A, D2: b.B, Imm2: b.Imm, Region2: b.Reg,
			}
			return true
		case ic.MovI:
			*op = Op{
				Code: XFStMovI, Width: 2, PC: int32(pc),
				A: a.A, B: a.B, Imm: a.Imm, Region: a.Reg,
				D2: b.D, W: b.Word,
			}
			return true
		}
	case ic.MovI:
		if b.Op == ic.St {
			*op = Op{
				Code: XFMovISt, Width: 2, PC: int32(pc),
				D: a.D, W: a.Word,
				A2: b.A, D2: b.B, Imm2: b.Imm, Region2: b.Reg,
			}
			return true
		}
	case ic.Mov:
		switch b.Op {
		case ic.Jmp:
			*op = Op{
				Code: XFMovJmp, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, Target: int32(b.Target),
			}
			return true
		case ic.Mov:
			*op = Op{
				Code: XFMovMov, Width: 2, PC: int32(pc),
				D: a.D, A: a.A, D2: b.D, A2: b.A,
			}
			return true
		case ic.BrTag:
			// Every condition but Ne means Eq (see Decode1).
			if b.Cond != ic.CondNe {
				*op = Op{
					Code: XFMovBrTagEq, Width: 2, PC: int32(pc),
					D: a.D, A: a.A,
					D2: b.A, Tag: b.Tag, Target: int32(b.Target),
				}
				return true
			}
		}
	case ic.BrCmp:
		// Compare-and-move: a branch that skips exactly the following Mov.
		// "Taken" means the move is skipped; either way control falls
		// through to pc+2, so the fused op has no Target.
		if !a.HasImm && a.Target == pc+2 && b.Op == ic.Mov {
			*op = Op{
				Code: XFCMovR, Width: 2, PC: int32(pc),
				A: a.A, B: a.B, Cond: a.Cond,
				D2: b.D, A2: b.A,
			}
			return true
		}
	}
	return false
}
