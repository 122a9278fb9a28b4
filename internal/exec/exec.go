// Package exec is the predecoded execution core shared by the sequential
// IntCode emulator and the VLIW simulator. It translates ic.Inst — a
// general, assembler-friendly record whose meaning depends on several
// selector fields (HasImm, Cond, Sys, Region) — into a dense internal
// format in which every operand form is a distinct opcode, so the hot
// interpreter loops dispatch once per operation and never re-test selectors
// that were fixed at assembly time. Branch targets are pre-resolved to
// stream indices, out-of-range targets land on an explicit trap op, and
// store-site region limits are reduced to a single table-indexed compare.
//
// On top of the predecoded stream, a peephole pass fuses the hottest
// BAM-shaped instruction pairs, and the whole dereference loop, into
// superinstructions (see fuse.go). Fused ops carry the static ICI width of
// their constituents and the executors account each constituent they run,
// so Steps and the paper's §3.1/§4 dynamic statistics stay in original-ICI
// units: fusion changes dispatch counts, never the architecture-level
// numbers.
//
// Predecoding is per-Program, lazy, and cached under a sync.Once (via
// ic.Program.ExecCache), so a pooled engine answering many queries pays for
// it once.
package exec

import (
	"sync"

	"symbol/internal/ic"
	"symbol/internal/word"
)

// XCode is a dense internal opcode. Unlike ic.Op, the operand form is part
// of the opcode: register-vs-immediate ALU variants, branch conditions and
// sys escapes are all split so the run loops dispatch without selector
// tests.
type XCode uint8

const (
	// XBadPC traps execution that reaches an invalid pc: a branch whose
	// target was out of range at predecode time, or control falling off the
	// end of the code. It is the zero Code so a zeroed op is a trap, never
	// a silent nop.
	XBadPC   XCode = iota
	XUnknown       // unknown ic.Op (matches the legacy "unknown opcode" error)
	XNop

	XLd // D = mem[val(A)+Imm]
	XSt // mem[val(A)+Imm] = B, overflow-checked against limit[Region]

	// ALU, register / immediate second operand.
	XAddR
	XAddI
	XSubR
	XSubI
	XMulR
	XMulI
	XDivR
	XDivI
	XModR
	XModI
	XAndR
	XAndI
	XOrR
	XOrI
	XXorR
	XXorI
	XShlR
	XShlI
	XShrR
	XShrI

	XMkTag
	XGetTag
	XLea
	XMov
	XMovI

	// Branches, split by condition and operand form. The Eq/Ne immediate
	// form compares full tagged words held in W (see ic.Inst.Word); the
	// ordered forms compare signed value fields.
	XBrTagEq
	XBrTagNe
	XBrCmpEqR
	XBrCmpNeR
	XBrCmpEqI
	XBrCmpNeI
	XBrCmpOrdR // Cond ∈ {Lt, Le, Gt, Ge}
	XBrCmpOrdI

	XJmp
	XJmpR
	XJsr
	XHalt

	// Sys escapes, one opcode per builtin.
	XSysWrite
	XSysNl
	XSysWriteCode
	XSysCompare
	XSysBallPut
	XSysFault
	XSysBad // unknown SysID (matches the legacy "unknown sys op" error)

	// Superinstructions. The executor accounts each constituent (pcs PC
	// through PC+Width-1) in steps, budgets and faults.
	//
	// The dereference loop (bam.Deref) is one op of Width 5, or 6 with the
	// Mov that loads its chase register. With d = D and t = D2:
	//
	//	      Mov d, A           (XFMovDeref only)
	//	top:  BrTag.ne d, Tag → out
	//	      Ld t, [d+Imm]
	//	      BrCmp.eq t, d → out
	//	      Mov d, t
	//	      Jmp top
	//	out:  (the next op)
	XFDeref
	XFMovDeref

	// The pairs: Width is 2, and second-constituent operands live in
	// D2/A2/Imm2.
	XFStAdd  // mem[A+Imm] = B (region-checked); D2 = D2 + Imm2
	XFMovJmp // D = A; goto Target
	XFCMovR  // if cmp(regs[A], regs[B], Cond) skip, else D2 = regs[A2]

	// Memory-shaped pairs: choice-point pushes and restores are runs of
	// adjacent stores/loads, and argument setup is runs of moves, so these
	// dominate the unfused dynamic mix once the branch shapes are handled.
	XFLdLd       // D = mem[A+Imm]; D2 = mem[A2+Imm2]
	XFLdMov      // D = mem[A+Imm]; D2 = regs[A2]
	XFStSt       // mem[A+Imm] = B (Region); mem[A2+Imm2] = regs[D2] (Region2)
	XFStMovI     // mem[A+Imm] = B (Region); D2 = W
	XFMovISt     // D = W; mem[A2+Imm2] = regs[D2] (Region2)
	XFMovMov     // D = regs[A]; D2 = regs[A2]
	XFMovBrTagEq // D = regs[A]; if tag(regs[D2]) == Tag goto Target

	// Marked singles (see ic.Mark): semantically identical to XMov/XLd, but
	// split into their own opcodes so the per-opcode dispatch counters double
	// as choice-point and trail-undo counters at zero hot-path cost. The
	// fusion pass refuses to bury a marked ICI inside a superinstruction.
	XMovCP  // XMov that commits a choice point (Mov B, nb)
	XLdUndo // XLd that fetches a trail entry during backtrack unwinding

	NumCodes
)

var codeNames = [NumCodes]string{
	"badpc", "unknown", "nop", "ld", "st",
	"add.r", "add.i", "sub.r", "sub.i", "mul.r", "mul.i", "div.r", "div.i",
	"mod.r", "mod.i", "and.r", "and.i", "or.r", "or.i", "xor.r", "xor.i",
	"shl.r", "shl.i", "shr.r", "shr.i",
	"mktag", "gettag", "lea", "mov", "movi",
	"brtag.eq", "brtag.ne", "brcmp.eq.r", "brcmp.ne.r", "brcmp.eq.i",
	"brcmp.ne.i", "brcmp.ord.r", "brcmp.ord.i",
	"jmp", "jmpr", "jsr", "halt",
	"sys.write", "sys.nl", "sys.write_code", "sys.compare", "sys.ball_put",
	"sys.fault", "sys.bad",
	"f.deref", "f.mov+deref", "f.st+add", "f.mov+jmp", "f.cmov",
	"f.ld+ld", "f.ld+mov", "f.st+st", "f.st+movi", "f.movi+st", "f.mov+mov",
	"f.mov+brtag.eq",
	"mov.cp", "ld.undo",
}

func (c XCode) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "xcode(?)"
}

// Fused reports whether the opcode is a superinstruction.
func (c XCode) Fused() bool { return c >= XFDeref && c <= XFMovBrTagEq }

// ClassOf maps each opcode to the paper's operation class of its (first)
// constituent ICI, mirroring ic.Inst.Class. Class2Of gives the second
// constituent's class for superinstructions, with ic.NumClasses as the
// "no second constituent" sentinel. The executors expand their per-opcode
// dispatch counters through these tables after a run, recovering the exact
// architecture-level class mix (§3.2 of the paper) without classifying in
// the hot loop.
var (
	ClassOf  [NumCodes]ic.Class
	Class2Of [NumCodes]ic.Class
)

func init() {
	for c := XCode(0); c < NumCodes; c++ {
		ClassOf[c] = ic.ClassALU // default, like ic.Inst.Class
		Class2Of[c] = ic.NumClasses
	}
	one := func(c XCode, k ic.Class) { ClassOf[c] = k }
	two := func(c XCode, k1, k2 ic.Class) { ClassOf[c] = k1; Class2Of[c] = k2 }

	one(XLd, ic.ClassMemory)
	one(XSt, ic.ClassMemory)
	one(XLdUndo, ic.ClassMemory)
	one(XMov, ic.ClassMove)
	one(XMovI, ic.ClassMove)
	one(XMovCP, ic.ClassMove)
	for _, c := range []XCode{
		XBrTagEq, XBrTagNe, XBrCmpEqR, XBrCmpNeR, XBrCmpEqI, XBrCmpNeI,
		XBrCmpOrdR, XBrCmpOrdI, XJmp, XJmpR, XJsr, XHalt, XBadPC,
	} {
		one(c, ic.ClassControl)
	}
	for _, c := range []XCode{
		XSysWrite, XSysNl, XSysWriteCode, XSysCompare, XSysBallPut,
		XSysFault, XSysBad,
	} {
		one(c, ic.ClassSys)
	}

	// A dereference dispatch counts its head BrTag (and the Mov before
	// it); Mix counts the loads and chases of the loop body.
	one(XFDeref, ic.ClassControl)
	two(XFMovDeref, ic.ClassMove, ic.ClassControl)
	two(XFStAdd, ic.ClassMemory, ic.ClassALU)
	two(XFMovJmp, ic.ClassMove, ic.ClassControl)
	two(XFCMovR, ic.ClassControl, ic.ClassMove)
	two(XFLdLd, ic.ClassMemory, ic.ClassMemory)
	two(XFLdMov, ic.ClassMemory, ic.ClassMove)
	two(XFStSt, ic.ClassMemory, ic.ClassMemory)
	two(XFStMovI, ic.ClassMemory, ic.ClassMove)
	two(XFMovISt, ic.ClassMove, ic.ClassMemory)
	two(XFMovMov, ic.ClassMove, ic.ClassMove)
	two(XFMovBrTagEq, ic.ClassMove, ic.ClassControl)
}

// hasTarget reports whether the op's Target field is a code address that
// predecoding must remap to a stream index.
func hasTarget(c XCode) bool {
	switch c {
	case XBrTagEq, XBrTagNe, XBrCmpEqR, XBrCmpNeR, XBrCmpEqI, XBrCmpNeI,
		XBrCmpOrdR, XBrCmpOrdI, XJmp, XJsr,
		XFMovJmp, XFMovBrTagEq:
		return true
	}
	return false
}

// Op is one predecoded operation. Field use by opcode follows the comments
// on the XCode constants; PC is the original pc of the (first) constituent,
// used for return-address generation and error context.
type Op struct {
	Code    XCode
	Width   uint8 // static ICI count: 1; 2 for a pair; 5 or 6 for a dereference
	Tag     word.Tag
	Region  ic.Region
	Region2 ic.Region // second store's region in store-pair superinstructions
	Cond    ic.Cond

	D, A, B ic.Reg
	D2, A2  ic.Reg

	Imm    int64
	Imm2   int64
	W      word.W
	Target int32
	PC     int32
}

// Stream is one executable predecoded form of a program.
type Stream struct {
	// Ops is the operation stream. The ops after the program proper are
	// XBadPC traps: one for control falling off the end of the code, plus
	// one per statically out-of-range branch target (each trap's Imm holds
	// the invalid pc it stands for, so the executor reports the same pc the
	// legacy bounds check would have). Dispatching on a trap op replaces
	// the per-iteration pc bounds test.
	Ops []Op
	// XOf maps an original pc to its stream index, or -1 when the pc was
	// fused into the interior of a superinstruction. No branch outside a
	// superinstruction targets its interior (the fusion pass refuses to
	// consume such a pc; a dereference loop's back edge is the op's own), so
	// -1 is reachable only through arithmetic on code addresses, which
	// nothing in the runtime model does.
	XOf []int32
	// Entry and Throw are the stream indices of the program entry and of
	// the $throwunwind routine (Throw = -1 for programs without it).
	Entry int32
	Throw int32
	// Fail is the stream index of the shared $fail routine, the resume
	// point for suspended machines: entering here backtracks into the next
	// untried alternative. FailPC is a static branch target (every failure
	// branch in the program jumps to it), so fusion never buries it and the
	// lookup is exact. -1 for programs without a fail routine; those cannot
	// suspend.
	Fail int32

	bad int32 // index of the fall-off-the-end trap
}

// Lookup resolves an original pc to a stream index, returning a trap index
// for pcs that are out of range or fused into a superinstruction interior.
func (s *Stream) Lookup(pc int) int32 {
	if pc < 0 || pc >= len(s.XOf) {
		return s.bad
	}
	if x := s.XOf[pc]; x >= 0 {
		return x
	}
	return s.bad
}

// Program is the predecoded execution image of one ic.Program: the fused
// stream (plain plus superinstructions) that default runs use, and the
// plain stream (one op per ICI, stream index == pc), built on first use by
// Plain. Both are immutable once built.
type Program struct {
	Fused Stream
	Stats Stats

	src       *ic.Program
	plainOnce sync.Once
	plain     Stream
}

// Plain returns the plain stream, building it on first use: only the
// unfused core and the tests that compare against it run it, so compiles
// and snapshot boots build the fused stream alone. Safe for concurrent use.
func (xp *Program) Plain() *Stream {
	xp.plainOnce.Do(func() {
		n := len(xp.src.Code)
		plain := &xp.plain
		plain.Ops = make([]Op, 0, n+1)
		plain.XOf = make([]int32, n)
		for pc := range xp.src.Code {
			plain.XOf[pc] = int32(pc)
			plain.Ops = append(plain.Ops, Decode1(&xp.src.Code[pc], pc))
		}
		finish(plain, xp.src)
	})
	return &xp.plain
}

// Stats summarizes the fusion pass over the static code.
type Stats struct {
	PlainOps int           // ICIs in the program
	FusedOps int           // ops in the fused stream (excluding the traps)
	Supers   [NumCodes]int // static superinstruction counts by opcode
}

// Of returns the cached predecoded image of p, building it on first use.
func Of(p *ic.Program) *Program {
	return p.ExecCache(func() any { return Predecode(p) }).(*Program)
}

// Decode1 predecodes a single ICI without target resolution: the Target
// field is copied through verbatim. The VLIW simulator uses it per
// operation slot, where targets are already word indices.
func Decode1(in *ic.Inst, pc int) Op {
	op := Op{
		Width: 1, PC: int32(pc),
		D: in.D, A: in.A, B: in.B,
		Imm: in.Imm, W: in.Word,
		Tag: in.Tag, Region: in.Reg, Cond: in.Cond,
		Target: int32(in.Target),
	}
	alu := func(r, i XCode) XCode {
		if in.HasImm {
			return i
		}
		return r
	}
	switch in.Op {
	case ic.Nop:
		op.Code = XNop
	case ic.Ld:
		op.Code = XLd
		if in.Mark == ic.MarkTrailUndo {
			op.Code = XLdUndo
		}
	case ic.St:
		op.Code = XSt
	case ic.Add:
		op.Code = alu(XAddR, XAddI)
	case ic.Sub:
		op.Code = alu(XSubR, XSubI)
	case ic.Mul:
		op.Code = alu(XMulR, XMulI)
	case ic.Div:
		op.Code = alu(XDivR, XDivI)
	case ic.Mod:
		op.Code = alu(XModR, XModI)
	case ic.And:
		op.Code = alu(XAndR, XAndI)
	case ic.Or:
		op.Code = alu(XOrR, XOrI)
	case ic.Xor:
		op.Code = alu(XXorR, XXorI)
	case ic.Shl:
		op.Code = alu(XShlR, XShlI)
	case ic.Shr:
		op.Code = alu(XShrR, XShrI)
	case ic.MkTag:
		op.Code = XMkTag
	case ic.GetTag:
		op.Code = XGetTag
	case ic.Lea:
		op.Code = XLea
	case ic.Mov:
		op.Code = XMov
		if in.Mark == ic.MarkCPPush {
			op.Code = XMovCP
		}
	case ic.MovI:
		op.Code = XMovI
	case ic.BrTag:
		// The reference interpreter treats every condition except Ne as Eq.
		if in.Cond == ic.CondNe {
			op.Code = XBrTagNe
		} else {
			op.Code = XBrTagEq
		}
	case ic.BrCmp:
		switch in.Cond {
		case ic.CondEq:
			op.Code = alu(XBrCmpEqR, XBrCmpEqI)
		case ic.CondNe:
			op.Code = alu(XBrCmpNeR, XBrCmpNeI)
		default:
			op.Code = alu(XBrCmpOrdR, XBrCmpOrdI)
		}
	case ic.Jmp:
		op.Code = XJmp
	case ic.JmpR:
		op.Code = XJmpR
	case ic.Jsr:
		op.Code = XJsr
	case ic.Halt:
		op.Code = XHalt
	case ic.SysOp:
		switch in.Sys {
		case ic.SysWrite:
			op.Code = XSysWrite
		case ic.SysNl:
			op.Code = XSysNl
		case ic.SysWriteCode:
			op.Code = XSysWriteCode
		case ic.SysCompare:
			op.Code = XSysCompare
		case ic.SysBallPut:
			op.Code = XSysBallPut
		case ic.SysFault:
			op.Code = XSysFault
		default:
			op.Code = XSysBad
		}
	default:
		op.Code = XUnknown
	}
	return op
}

// ALUOp returns the operation of an ALU opcode (XAddR through XShrI) and
// whether its second operand is a register (the R form) rather than Imm.
// The opcodes come in register/immediate pairs in ic.Add..ic.Shr order.
func (c XCode) ALUOp() (op ic.Op, reg bool) {
	i := c - XAddR
	return ic.Add + ic.Op(i/2), i%2 == 0
}

// ALU is the meaning of the ALU ICIs (ic.Add through ic.Shr): it combines
// a's signed value field with b (a register's value field, or the
// immediate) and keeps a's tag. Shift counts are taken mod 64. ok is false
// only for Div and Mod by zero, where the result is 0; the sequential
// machines fault with ZeroDivide there and the VLIW simulator dismisses it.
func ALU(op ic.Op, a word.W, b int64) (r word.W, ok bool) {
	x := a.Int()
	switch op {
	case ic.Add:
		x += b
	case ic.Sub:
		x -= b
	case ic.Mul:
		x *= b
	case ic.Div:
		if b == 0 {
			return 0, false
		}
		x /= b
	case ic.Mod:
		if b == 0 {
			return 0, false
		}
		x %= b
	case ic.And:
		x &= b
	case ic.Or:
		x |= b
	case ic.Xor:
		x ^= b
	case ic.Shl:
		x <<= uint(b & 63)
	default: // ic.Shr
		x >>= uint(b & 63)
	}
	return word.Make(a.Tag(), uint64(x)), true
}

// Taken is the meaning of the conditional branch ICIs (ic.BrTag and
// ic.BrCmp) given the register file: whether the branch is taken. BrTag
// tests A's tag, and every condition except Ne means Eq (as in Decode1).
// BrCmp compares A with B, or with the immediate: the full tagged word in
// Word for Eq/Ne, the signed value in Imm for the ordered conditions.
func Taken(in *ic.Inst, regs []word.W) bool {
	a := regs[in.A]
	switch {
	case in.Op == ic.BrTag:
		return (a.Tag() == in.Tag) != (in.Cond == ic.CondNe)
	case !in.HasImm:
		return CmpW(a, regs[in.B], in.Cond)
	case in.Cond == ic.CondEq || in.Cond == ic.CondNe:
		return CmpW(a, in.Word, in.Cond)
	}
	return OrdCmp(a.Int(), in.Imm, in.Cond)
}

// OrdCmp compares signed value fields under an ordered BrCmp condition.
func OrdCmp(a, b int64, c ic.Cond) bool {
	switch c {
	case ic.CondLt:
		return a < b
	case ic.CondLe:
		return a <= b
	case ic.CondGt:
		return a > b
	default:
		return a >= b
	}
}

// CmpW is the full BrCmp register-form predicate: Eq/Ne compare whole
// tagged words, ordered conditions compare signed value fields.
func CmpW(a, b word.W, c ic.Cond) bool {
	switch c {
	case ic.CondEq:
		return a == b
	case ic.CondNe:
		return a != b
	default:
		return OrdCmp(a.Int(), b.Int(), c)
	}
}

// referrers counts, for every pc, the ways control can enter it other than
// by falling through from its predecessor: static branch targets,
// procedure entries and other indirect-control pcs recorded in Entries,
// return points after Jsr, and any code address materialized by MovI
// (retry addresses stored into choice points). Counts saturate at 255. The
// fusion pass never consumes a referred pc as a superinstruction's
// interior, which is what keeps every reachable jump target addressable in
// the fused stream; the one exception is a dereference loop head whose
// only referrer is the loop's own back edge (see fuseDeref).
func referrers(p *ic.Program) []uint8 {
	n := len(p.Code)
	r := make([]uint8, n)
	mark := func(pc int) {
		if pc >= 0 && pc < n && r[pc] < 255 {
			r[pc]++
		}
	}
	mark(p.Entry)
	mark(p.FailPC)
	mark(p.ThrowPC)
	for pc := range p.Entries {
		mark(pc)
	}
	for pc := range p.Code {
		in := &p.Code[pc]
		switch {
		case branches(in.Op):
			mark(in.Target)
			if in.Op == ic.Jsr {
				mark(pc + 1)
			}
		case in.Op == ic.MovI:
			if in.Word.Tag() == word.Code {
				mark(int(in.Word.Val()))
			}
		}
	}
	return r
}

// branches reports whether ICIs of opcode op carry a static Target: the
// ones Decode1 turns into an opcode for which hasTarget holds.
func branches(op ic.Op) bool {
	switch op {
	case ic.BrTag, ic.BrCmp, ic.Jmp, ic.Jsr:
		return true
	}
	return false
}

// outside reports whether a predecoded branch target lies outside an n-ICI
// program, where finish sends it to a trap op of its own.
func outside(target int32, n int) bool { return target < 0 || int(target) >= n }

// finish seals a stream: appends the trap ops, remaps branch targets from
// original pcs to stream indices (out-of-range targets get a dedicated trap
// carrying the invalid pc), and resolves the entry and throw indices.
func finish(s *Stream, p *ic.Program) {
	n := len(p.Code)
	real := len(s.Ops)
	s.bad = int32(real)
	s.Ops = append(s.Ops, Op{Code: XBadPC, Width: 1, PC: int32(n), Imm: int64(n)})
	for i := 0; i < real; i++ {
		if !hasTarget(s.Ops[i].Code) {
			continue
		}
		t := s.Ops[i].Target
		if outside(t, n) {
			s.Ops[i].Target = int32(len(s.Ops))
			s.Ops = append(s.Ops, Op{Code: XBadPC, Width: 1, PC: s.Ops[i].PC, Imm: int64(t)})
			continue
		}
		x := s.XOf[t]
		if x < 0 {
			// Unreachable by construction: referrers counted every static
			// target and the fusion pass refuses to bury referred pcs.
			panic("exec: branch into superinstruction interior")
		}
		s.Ops[i].Target = x
	}
	s.Entry = s.Lookup(p.Entry)
	s.Throw = -1
	if p.ThrowPC > 0 {
		s.Throw = s.Lookup(p.ThrowPC)
	}
	s.Fail = -1
	if p.FailPC > 0 {
		s.Fail = s.Lookup(p.FailPC)
	}
}

// Predecode builds the execution image of p: the fused stream now, the
// plain stream when Plain first asks for it. Callers normally use Of,
// which caches the result on the program.
//
// It makes two passes so the fused stream is allocated once at its final
// size: every loaded program keeps it resident. The first pass picks the
// superinstructions, filling XOf, and counts the ops and the traps finish
// appends; the second decodes.
func Predecode(p *ic.Program) *Program {
	n := len(p.Code)
	xp := &Program{Stats: Stats{PlainOps: n}, src: p}
	fused := &xp.Fused

	refs := referrers(p)
	fused.XOf = make([]int32, n)
	ops, traps := 0, 1 // the fall-off-the-end trap
	var fop Op
	for pc := 0; pc < n; {
		fused.XOf[pc] = int32(ops)
		ops++
		if fuse(p.Code, pc, refs, &fop) {
			for i := 1; i < int(fop.Width); i++ {
				fused.XOf[pc+i] = -1
			}
			xp.Stats.Supers[fop.Code]++
			if hasTarget(fop.Code) && outside(fop.Target, n) {
				traps++
			}
			pc += int(fop.Width)
			continue
		}
		if in := &p.Code[pc]; branches(in.Op) && outside(int32(in.Target), n) {
			traps++
		}
		pc++
	}
	xp.Stats.FusedOps = ops

	fused.Ops = make([]Op, 0, ops+traps)
	for pc := 0; pc < n; {
		if pc+1 < n && fused.XOf[pc+1] < 0 {
			fused.Ops = fused.Ops[:len(fused.Ops)+1]
			fop := &fused.Ops[len(fused.Ops)-1]
			fuse(p.Code, pc, refs, fop)
			pc += int(fop.Width)
			continue
		}
		fused.Ops = append(fused.Ops, Decode1(&p.Code[pc], pc))
		pc++
	}
	finish(fused, p)
	return xp
}
