// Package ic defines the machine-independent Intermediate Code (ICI) of the
// SYMBOL evaluation system (paper §3.1). Each ICI expresses one primitive
// hardware functionality: a load, a store, an ALU operation on tagged words,
// a register move, or a control transfer. ICIs name an unbounded set of
// virtual registers — they carry no register allocation or functional-unit
// information; that is the back-end's job.
//
// Instruction classes follow the paper's Figure 2 taxonomy: memory, ALU,
// move (data movement) and control, plus a small "sys" escape class for
// builtins with observable side effects (write/1, nl/0).
package ic

import (
	"fmt"
	"sync"

	"symbol/internal/fault"
	"symbol/internal/term"
	"symbol/internal/word"
)

// Reg is a virtual register number. Negative means "no operand".
type Reg int32

// None marks an absent register operand.
const None Reg = -1

// Global machine-state registers. Registers below FirstArg are the abstract
// machine's state; FirstArg..FirstArg+NumArgRegs-1 are argument registers;
// FirstTemp and above are single-assignment-ish temporaries minted freely by
// the translator (variable renaming, §3.1, eliminates reuse of temporaries
// so that only true data dependencies remain).
const (
	RegH   Reg = iota // heap top
	RegESP            // environment-stack top
	RegE              // current environment frame
	RegB              // most recent choice point
	RegTR             // trail top
	RegCP             // continuation (return) code pointer
	RegRV             // runtime-routine return value / scratch link
	RegEB             // environment barrier: frames below are protected by
	// live choice points and may not be reused by allocate (the separate-
	// stack equivalent of the WAM's max(E,B) allocation rule)

	FirstArg   Reg = 8
	NumArgRegs     = 16
	FirstTemp  Reg = FirstArg + NumArgRegs
)

// ArgReg returns the i-th argument register.
func ArgReg(i int) Reg { return FirstArg + Reg(i) }

// Class is the paper's instruction-class taxonomy.
type Class uint8

const (
	ClassALU Class = iota
	ClassMemory
	ClassMove
	ClassControl
	ClassSys
	NumClasses
)

var classNames = [NumClasses]string{"alu", "memory", "move", "control", "sys"}

func (c Class) String() string { return tableName(classNames[:], c, "Class") }

// Op is an ICI opcode.
type Op uint8

const (
	Nop Op = iota
	// Memory. Only explicit loads and stores touch memory; direct and
	// immediate addressing only (base register + constant offset).
	Ld // D = mem[val(A) + Imm]
	St // mem[val(A) + Imm] = B

	// ALU on tagged words: the value fields are combined, the tag of the
	// first operand is preserved (the datapath's independently addressable
	// fields, §5.2). The second operand is B, or Imm when HasImm.
	Add
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
	MkTag  // D = A with tag replaced by Tag
	GetTag // D = int word holding tag(A)
	Lea    // D = word(Tag, val(A)+Imm): tagged pointer arithmetic in one op

	// Moves.
	Mov  // D = A
	MovI // D = Word (full tagged-word immediate)

	// Control. Branches resolve in the second pipeline stage: a taken
	// branch costs one bubble on pipelined machines, 2 cycles sequentially.
	//
	// BrCmp's immediate form is split by condition: the ordered conditions
	// (Lt/Le/Gt/Ge) compare signed *value fields* and take the immediate
	// from Imm; the full-word conditions (Eq/Ne) compare complete tagged
	// words and take the immediate from Word, so the intended tag is always
	// explicit at the construction site (never an int64 reinterpreted as a
	// word).
	BrTag // if tag(A) ~ Tag (Cond Eq/Ne) jump Target
	BrCmp // if A ~ (B | Imm | Word) (Cond) jump Target
	Jmp   // jump Target
	JmpR  // jump val(A)
	Jsr   // D = code(next pc); jump Target
	Halt  // stop; Imm is the exit status (0 success, 1 fail)

	// Sys escapes.
	SysOp // builtin identified by Sys, operands in A (and B)
)

// Cond is a branch/compare condition.
type Cond uint8

const (
	CondEq Cond = iota // full-word equality
	CondNe             // full-word inequality
	CondLt             // signed value comparison
	CondLe
	CondGt
	CondGe
)

var condNames = []string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string { return tableName(condNames, c, "Cond") }

// Invert returns the negation of the condition, used by the trace scheduler
// to lay the predicted path out as fall-through.
func (c Cond) Invert() Cond {
	switch c {
	case CondEq:
		return CondNe
	case CondNe:
		return CondEq
	case CondLt:
		return CondGe
	case CondLe:
		return CondGt
	case CondGt:
		return CondLe
	default:
		return CondLt
	}
}

// SysID identifies a builtin escape.
type SysID uint8

const (
	SysNone      SysID = iota
	SysWrite           // write(term at A)
	SysNl              // newline
	SysCompare         // RV = int(-1/0/1) from structural compare of A, B
	SysWriteCode       // write integer val(A) as a character (put_char-ish)
	SysBallPut         // copy term at A into the ball area and arm the ball flag
	SysFault           // raise the machine fault whose fault.Kind is Imm
)

var sysNames = []string{"none", "write", "nl", "compare", "write_code", "ball_put", "fault"}

func (s SysID) String() string { return tableName(sysNames, s, "SysID") }

// Region is an optional static memory-region annotation used by the
// ablation study on memory disambiguation. The paper argues stack and heap
// references cannot be disambiguated because they flow through pointers
// (§4.1); the default scheduler therefore ignores this hint unless the
// machine model explicitly enables region-based disambiguation.
type Region uint8

const (
	RegionUnknown Region = iota
	RegionHeap
	RegionEnv
	RegionCP
	RegionTrail
	RegionPDL
	RegionBall
)

var regionNames = []string{"?", "heap", "env", "cp", "trail", "pdl", "ball"}

func (r Region) String() string { return tableName(regionNames, r, "Region") }

// tableName returns v's entry in names, or "typ(v)" for a value past the
// table (a hand-built or corrupt instruction), so printing one never
// panics.
func tableName[T ~uint8](names []string, v T, typ string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, uint8(v))
}

// Overflow is the fault raised by a store that runs past the region's
// configured end.
func (r Region) Overflow() fault.Kind {
	switch r {
	case RegionHeap:
		return fault.HeapOverflow
	case RegionEnv:
		return fault.EnvOverflow
	case RegionCP:
		return fault.CPOverflow
	case RegionTrail:
		return fault.TrailOverflow
	case RegionPDL:
		return fault.PDLOverflow
	}
	return fault.InvalidMemory
}

// Mark is an optional semantic annotation placed by the code generator on
// the single ICI that commits a Prolog-level machine event the observability
// layer wants to count: choice-point creation (the Mov that installs the new
// frame pointer into B — it cannot fault, so a partially written frame is
// never counted), choice-point disposal (the Ld that follows the B chain in
// Trust), and trail unwinding (the Ld that fetches a trail entry in $fail).
// Marks never change execution semantics; they only make the events cheap to
// observe. Predecoding gives CPPush and TrailUndo their own opcodes, so the
// hot loops count them through the ordinary per-opcode dispatch counters.
type Mark uint8

const (
	MarkNone      Mark = iota
	MarkCPPush         // Mov B, nb — a fully written choice point became live
	MarkCPPop          // Ld B, [B+prevB] — the top choice point was discarded
	MarkTrailUndo      // Ld v, [TR+0] — one trail entry is about to be unbound
)

// Inst is one Intermediate Code Instruction.
//
// The seven one-byte fields come first so they share one word and the
// record is 48 bytes. Snapshots encode field by field (AppendInst), so the
// order is not part of the format.
type Inst struct {
	Op     Op
	HasImm bool // B-or-immediate selector for ALU and BrCmp
	Tag    word.Tag
	Cond   Cond
	Sys    SysID
	Reg    Region // memory-region annotation for Ld/St
	Mark   Mark   // observability annotation (see Mark)

	D      Reg    // destination register
	A, B   Reg    // source registers
	Imm    int64  // ALU/ordered-branch immediate, load/store offset, halt status
	Word   word.W // MovI immediate; BrCmp Eq/Ne full-word immediate
	Target int    // branch target pc (instruction index)
}

// Class returns the paper's instruction class for the ICI.
func (in *Inst) Class() Class {
	switch in.Op {
	case Ld, St:
		return ClassMemory
	case Mov, MovI:
		return ClassMove
	case BrTag, BrCmp, Jmp, JmpR, Jsr, Halt:
		return ClassControl
	case SysOp:
		return ClassSys
	default:
		return ClassALU
	}
}

// IsBranch reports whether the ICI is a control transfer.
func (in *Inst) IsBranch() bool { return in.Class() == ClassControl }

// IsCondBranch reports whether the ICI is a conditional branch (has both a
// taken target and a fall-through successor).
func (in *Inst) IsCondBranch() bool { return in.Op == BrTag || in.Op == BrCmp }

// Uses appends the registers read by the ICI to dst.
func (in *Inst) Uses(dst []Reg) []Reg {
	switch in.Op {
	case Nop, MovI, Jmp, Jsr, Halt:
	case Ld, GetTag, MkTag, Lea, Mov, BrTag, JmpR:
		dst = append(dst, in.A)
	case St:
		dst = append(dst, in.A, in.B)
	case SysOp:
		if in.A != None {
			dst = append(dst, in.A)
		}
		if in.B != None {
			dst = append(dst, in.B)
		}
	default: // ALU, BrCmp
		dst = append(dst, in.A)
		if !in.HasImm && in.B != None {
			dst = append(dst, in.B)
		}
	}
	return dst
}

// Def returns the register written by the ICI, or None.
func (in *Inst) Def() Reg {
	switch in.Op {
	case Ld, Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
		MkTag, GetTag, Lea, Mov, MovI, Jsr:
		return in.D
	case SysOp:
		if in.Sys == SysCompare {
			return RegRV
		}
		return None
	default:
		return None
	}
}

// Program is an assembled IC program plus its symbol information.
type Program struct {
	Code   []Inst
	Atoms  *term.Table
	Entry  int            // entry pc
	FailPC int            // pc of the shared $fail routine
	Procs  map[string]int // "name/arity" → entry pc
	Names  map[int]string // pc → label, for listings
	// Entries marks pcs reachable through indirect control flow (procedure
	// entries, return points after Jsr, and retry addresses stored in
	// choice points). The back end must keep these addressable: they start
	// traces and are never scheduled into the middle of one.
	Entries map[int]bool
	// ThrowPC is the entry of the $throwunwind runtime routine, where
	// control lands when throw/1 runs or when the machine converts a
	// resource fault into a catchable ball (0 for programs without the
	// runtime routines, e.g. hand-assembled tests).
	ThrowPC int

	maxRegOnce sync.Once
	maxReg     Reg

	execOnce  sync.Once
	execCache any
}

// ExecCache returns the program's predecoded execution image, building it
// with build on the first call and caching it for the life of the Program.
// The cache lives here (rather than in a global map keyed by *Program) so a
// program and its predecoded form are reclaimed together; the value is
// opaque to this package because the predecoder (internal/exec) sits above
// ic in the import graph. Code must not be mutated after the first call.
func (p *Program) ExecCache(build func() any) any {
	p.execOnce.Do(func() {
		p.execCache = build()
	})
	return p.execCache
}

// MaxReg returns the highest register number named anywhere in the program,
// computed once and cached: executors size their register files from it, and
// a pooled engine must not rescan the whole code array on every query. Code
// must not be mutated after the first call.
func (p *Program) MaxReg() Reg {
	p.maxRegOnce.Do(func() {
		var buf [4]Reg
		for i := range p.Code {
			in := &p.Code[i]
			if d := in.Def(); d > p.maxReg {
				p.maxReg = d
			}
			for _, u := range in.Uses(buf[:0]) {
				if u > p.maxReg {
					p.maxReg = u
				}
			}
		}
	})
	return p.maxReg
}

// Simulated memory layout: distinct stack areas per the WAM/BAM model
// (§4.1), plus a small ball buffer for catch/throw. Word addresses. The
// base addresses are fixed (they are baked into the entry stub as
// immediates); per-run Layout values shrink the usable *size* of each
// area below these defaults, never move the bases.
const (
	HeapBase  = 1 << 20
	HeapSize  = 12 << 20
	EnvBase   = HeapBase + HeapSize
	EnvSize   = 2 << 20
	CPBase    = EnvBase + EnvSize
	CPSize    = 2 << 20
	TrailBase = CPBase + CPSize
	TrailSize = 2 << 20
	PDLBase   = TrailBase + TrailSize
	PDLSize   = 1 << 16
	// BallBase holds the exception state: [BallBase] is the ball-pending
	// flag, [BallBase+1] the ball root word, and the copied ball term
	// follows. Its size is fixed; it is not a growable stack.
	BallBase = PDLBase + PDLSize
	BallSize = 1 << 16
	MemWords = BallBase + BallSize
)

// Layout configures the usable number of words per memory area for one
// run. A zero field means the compile-time default; values are clamped to
// the defaults (bases are fixed, areas can only shrink).
type Layout struct {
	HeapWords  int64
	EnvWords   int64
	CPWords    int64
	TrailWords int64
	PDLWords   int64
}

func clampWords(v, def int64) int64 {
	if v <= 0 || v > def {
		return def
	}
	return v
}

// Limit returns the first word address past the usable part of region r
// under the layout (0 for unknown regions).
func (l Layout) Limit(r Region) uint64 {
	switch r {
	case RegionHeap:
		return HeapBase + uint64(clampWords(l.HeapWords, HeapSize))
	case RegionEnv:
		return EnvBase + uint64(clampWords(l.EnvWords, EnvSize))
	case RegionCP:
		return CPBase + uint64(clampWords(l.CPWords, CPSize))
	case RegionTrail:
		return TrailBase + uint64(clampWords(l.TrailWords, TrailSize))
	case RegionPDL:
		return PDLBase + uint64(clampWords(l.PDLWords, PDLSize))
	case RegionBall:
		return BallBase + BallSize
	}
	return 0
}

func regName(r Reg) string {
	switch r {
	case None:
		return "_"
	case RegH:
		return "h"
	case RegESP:
		return "esp"
	case RegE:
		return "e"
	case RegB:
		return "b"
	case RegTR:
		return "tr"
	case RegCP:
		return "cp"
	case RegRV:
		return "rv"
	case RegEB:
		return "eb"
	}
	if r >= FirstArg && r < FirstArg+NumArgRegs {
		return fmt.Sprintf("a%d", r-FirstArg)
	}
	return fmt.Sprintf("t%d", r-FirstTemp)
}

var opNames = map[Op]string{
	Nop: "nop", Ld: "ld", St: "st", Add: "add", Sub: "sub", Mul: "mul",
	Div: "div", Mod: "mod", And: "and", Or: "or", Xor: "xor", Shl: "shl",
	Shr: "shr", MkTag: "mktag", GetTag: "gettag", Lea: "lea", Mov: "mov", MovI: "movi",
	BrTag: "brtag", BrCmp: "brcmp", Jmp: "jmp", JmpR: "jmpr", Jsr: "jsr",
	Halt: "halt", SysOp: "sys",
}

// String disassembles the ICI.
func (in *Inst) String() string {
	n := opNames[in.Op]
	switch in.Op {
	case Nop:
		return n
	case Ld:
		return fmt.Sprintf("ld    %s, [%s%+d]", regName(in.D), regName(in.A), in.Imm)
	case St:
		return fmt.Sprintf("st    [%s%+d], %s", regName(in.A), in.Imm, regName(in.B))
	case MkTag:
		return fmt.Sprintf("mktag %s, %s, %s", regName(in.D), regName(in.A), in.Tag)
	case Lea:
		return fmt.Sprintf("lea   %s, %s[%s%+d]", regName(in.D), in.Tag, regName(in.A), in.Imm)
	case GetTag:
		return fmt.Sprintf("gettag %s, %s", regName(in.D), regName(in.A))
	case Mov:
		return fmt.Sprintf("mov   %s, %s", regName(in.D), regName(in.A))
	case MovI:
		return fmt.Sprintf("movi  %s, %s", regName(in.D), in.Word)
	case BrTag:
		return fmt.Sprintf("brtag %s %s %s, @%d", regName(in.A), in.Cond, in.Tag, in.Target)
	case BrCmp:
		if in.HasImm {
			if in.Cond == CondEq || in.Cond == CondNe {
				return fmt.Sprintf("brcmp %s %s %s, @%d", regName(in.A), in.Cond, in.Word, in.Target)
			}
			return fmt.Sprintf("brcmp %s %s %d, @%d", regName(in.A), in.Cond, in.Imm, in.Target)
		}
		return fmt.Sprintf("brcmp %s %s %s, @%d", regName(in.A), in.Cond, regName(in.B), in.Target)
	case Jmp:
		return fmt.Sprintf("jmp   @%d", in.Target)
	case JmpR:
		return fmt.Sprintf("jmpr  %s", regName(in.A))
	case Jsr:
		return fmt.Sprintf("jsr   %s, @%d", regName(in.D), in.Target)
	case Halt:
		return fmt.Sprintf("halt  %d", in.Imm)
	case SysOp:
		return fmt.Sprintf("sys   %s %s", in.Sys, regName(in.A))
	default:
		if in.HasImm {
			return fmt.Sprintf("%-5s %s, %s, %d", n, regName(in.D), regName(in.A), in.Imm)
		}
		return fmt.Sprintf("%-5s %s, %s, %s", n, regName(in.D), regName(in.A), regName(in.B))
	}
}

// Listing renders the whole program with labels.
func (p *Program) Listing() string {
	out := ""
	for pc := range p.Code {
		if lbl, ok := p.Names[pc]; ok {
			out += lbl + ":\n"
		}
		out += fmt.Sprintf("  %4d  %s\n", pc, p.Code[pc].String())
	}
	return out
}
