// Package bam defines the Berkeley-Abstract-Machine-style instruction set
// produced by the SYMBOL front-end compiler (paper §2, §3.1). BAM code is a
// register-oriented abstract machine language much closer to a RISC
// architecture than WAM code: head unification is specialized into explicit
// dereference, tag-switch, compare and bind operations; determinism is
// exploited with first-argument indexing so that deterministic predicates
// never create choice points.
//
// BAM registers are the same unbounded virtual registers used by the
// Intermediate Code (internal/ic); the translator (internal/expand) lowers
// each BAM instruction into a short fixed sequence of ICIs.
package bam

import (
	"fmt"

	"symbol/internal/ic"
	"symbol/internal/word"
)

// ValKind discriminates BAM operand kinds.
type ValKind uint8

const (
	_     ValKind = iota
	VReg          // virtual register
	VAtom         // atom immediate
	VInt          // integer immediate
	VFun          // functor immediate (name/arity)
)

// Val is a BAM operand: a register or a tagged immediate.
type Val struct {
	K     ValKind
	R     ic.Reg
	S     string // atom / functor name
	N     int64  // integer value / functor arity
	Arity int
}

// Reg wraps a register operand.
func Reg(r ic.Reg) Val { return Val{K: VReg, R: r} }

// AtomV wraps an atom immediate.
func AtomV(name string) Val { return Val{K: VAtom, S: name} }

// IntV wraps an integer immediate.
func IntV(n int64) Val { return Val{K: VInt, N: n} }

// FunV wraps a functor immediate.
func FunV(name string, arity int) Val { return Val{K: VFun, S: name, Arity: arity} }

func (v Val) String() string {
	switch v.K {
	case VReg:
		return fmt.Sprintf("r%d", v.R)
	case VAtom:
		return fmt.Sprintf("atm(%s)", v.S)
	case VInt:
		return fmt.Sprintf("int(%d)", v.N)
	case VFun:
		return fmt.Sprintf("fun(%s/%d)", v.S, v.Arity)
	}
	return "_"
}

// Op enumerates BAM instructions.
type Op uint8

const (
	Nop Op = iota

	// Code structure.
	Proc  // procedure entry "Name/Arity"
	Lbl   // local label L
	Jump  // jump L
	Call  // call Name/Arity (link in CP)
	Exec  // tail call Name/Arity (CP unchanged)
	Ret   // return via CP
	FailI // branch to the shared fail routine
	HaltI // stop with status N

	// Choice points (indexing chains).
	Try         // push choice point, retry address = L, saving N arg regs
	Retry       // update current choice point's retry address to L
	Trust       // pop current choice point
	RestoreArgs // reload A0..A(N-1) from the current choice point

	// Environments.
	Allocate   // push env frame with N permanent slots
	Deallocate // pop env frame, restoring CP
	GetY       // Dst = Y[N]
	PutY       // Y[N] = Src

	// Cut support.
	SaveB // Dst = B
	CutTo // B = Src

	// Data movement and heap construction.
	Move   // Dst = Src (register or immediate)
	LoadM  // Dst = mem[Base + Off]
	StoreM // mem[Base + Off] = Src
	StoreH // mem[H + Off] = Src  (structure building)
	AddH   // H += N
	LeaH   // Dst = tagged pointer (Tag) to H + Off

	// Tag insertion on a register value.
	MkTagI // Dst = Reg1 with tag replaced by Tag

	// Unification primitives.
	Deref     // Dst = dereference(Src)
	SwitchTag // dispatch on tag of Reg1: LVar/LInt/LAtm/LLst/LStr (0 = fail)
	BrTagI    // branch to L if tag(Reg1) Cond Tag
	BrEq      // branch to L if V1 Cond V2 (Eq/Ne full word, Lt.. on values)
	Bind      // mem[val(Reg1)] = Src; push Reg1 on trail
	UnifyCall // general unification of Reg1, Reg2 via the runtime routine

	// Arithmetic.
	Arith // Dst = V1 AOp V2 (integer values)

	// Builtin escapes.
	Sys // builtin SysID with argument registers

	// Fault raising: N is the fault.Kind to raise (compiled arithmetic
	// checks, e.g. a zero divisor under ArithChecks).
	RaiseFault
)

// AOp is a BAM arithmetic operation.
type AOp uint8

const (
	AAdd AOp = iota
	ASub
	AMul
	ADiv
	AMod
	AAnd
	AOr
	AXor
	AShl
	AShr
)

var aopNames = []string{"add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr"}

func (a AOp) String() string { return aopNames[a] }

// Instr is one BAM instruction. Fields are interpreted per Op.
type Instr struct {
	Op                           Op
	Name                         string // Proc/Call/Exec target name
	Arity                        int
	N                            int64 // counts, offsets, env sizes, halt status
	L                            int   // primary label
	LVar, LInt, LAtm, LLst, LStr int   // SwitchTag targets (0 = fail)
	Reg1                         ic.Reg
	Reg2                         ic.Reg
	Dst                          ic.Reg
	Src                          Val
	V1                           Val
	V2                           Val
	Tag                          word.Tag
	Cond                         ic.Cond
	AOp                          AOp
	Sys                          ic.SysID
}

func lbl(l int) string {
	if l == 0 {
		return "fail"
	}
	return fmt.Sprintf("L%d", l)
}

// String renders the instruction in an assembly-like syntax.
func (i *Instr) String() string {
	switch i.Op {
	case Nop:
		return "nop"
	case Proc:
		return fmt.Sprintf("procedure %s/%d:", i.Name, i.Arity)
	case Lbl:
		return lbl(i.L) + ":"
	case Jump:
		return "jump " + lbl(i.L)
	case Call:
		return fmt.Sprintf("call %s/%d", i.Name, i.Arity)
	case Exec:
		return fmt.Sprintf("execute %s/%d", i.Name, i.Arity)
	case Ret:
		return "return"
	case FailI:
		return "fail"
	case HaltI:
		return fmt.Sprintf("halt %d", i.N)
	case Try:
		return fmt.Sprintf("try %s, %d", lbl(i.L), i.N)
	case Retry:
		return fmt.Sprintf("retry %s", lbl(i.L))
	case Trust:
		return "trust"
	case RestoreArgs:
		return fmt.Sprintf("restore_args %d", i.N)
	case Allocate:
		return fmt.Sprintf("allocate %d", i.N)
	case Deallocate:
		return "deallocate"
	case GetY:
		return fmt.Sprintf("gety r%d, y%d", i.Dst, i.N)
	case PutY:
		return fmt.Sprintf("puty y%d, %s", i.N, i.Src)
	case SaveB:
		return fmt.Sprintf("save_b r%d", i.Dst)
	case CutTo:
		return fmt.Sprintf("cut %s", i.Src)
	case Move:
		return fmt.Sprintf("move r%d, %s", i.Dst, i.Src)
	case LoadM:
		return fmt.Sprintf("load r%d, [r%d%+d]", i.Dst, i.Reg1, i.N)
	case StoreM:
		return fmt.Sprintf("store [r%d%+d], %s", i.Reg1, i.N, i.Src)
	case StoreH:
		return fmt.Sprintf("store [h%+d], %s", i.N, i.Src)
	case AddH:
		return fmt.Sprintf("adda h, %d", i.N)
	case LeaH:
		return fmt.Sprintf("lea r%d, %s(h%+d)", i.Dst, i.Tag, i.N)
	case MkTagI:
		return fmt.Sprintf("mktag r%d, r%d, %s", i.Dst, i.Reg1, i.Tag)
	case Deref:
		return fmt.Sprintf("deref r%d, %s", i.Dst, i.Src)
	case SwitchTag:
		return fmt.Sprintf("switch r%d, var:%s int:%s atm:%s lst:%s str:%s",
			i.Reg1, lbl(i.LVar), lbl(i.LInt), lbl(i.LAtm), lbl(i.LLst), lbl(i.LStr))
	case BrTagI:
		return fmt.Sprintf("brtag r%d %s %s, %s", i.Reg1, i.Cond, i.Tag, lbl(i.L))
	case BrEq:
		return fmt.Sprintf("breq %s %s %s, %s", i.V1, i.Cond, i.V2, lbl(i.L))
	case Bind:
		return fmt.Sprintf("bind [r%d], %s", i.Reg1, i.Src)
	case UnifyCall:
		return fmt.Sprintf("unify r%d, r%d", i.Reg1, i.Reg2)
	case Arith:
		return fmt.Sprintf("arith r%d, %s %s %s", i.Dst, i.V1, i.AOp, i.V2)
	case Sys:
		return fmt.Sprintf("sys %s r%d", i.Sys, i.Reg1)
	case RaiseFault:
		return fmt.Sprintf("raise %d", i.N)
	}
	return fmt.Sprintf("op(%d)", i.Op)
}

// Unit is a compiled compilation unit: the BAM code of a whole program.
type Unit struct {
	Code []Instr
	// NumLabels is one past the highest label id used; label 0 means fail.
	NumLabels int
	// NextTemp is the first virtual register not used by the compiler; the
	// translator continues minting temporaries from here.
	NextTemp ic.Reg
	// Entry is the procedure the machine starts in ("main/0").
	Entry string
}

// Listing renders the unit.
func (u *Unit) Listing() string {
	s := ""
	for i := range u.Code {
		in := &u.Code[i]
		switch in.Op {
		case Proc, Lbl:
			s += in.String() + "\n"
		default:
			s += "\t" + in.String() + "\n"
		}
	}
	return s
}
