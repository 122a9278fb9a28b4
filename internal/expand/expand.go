// Package expand translates BAM code into Intermediate Code Instructions
// (paper §3.1): every BAM instruction becomes a short, fixed sequence of
// primitive ICIs, and the runtime routines the BAM model relies on (general
// unification over a push-down list, and the fail/backtrack routine that
// unwinds the trail and restores machine state from the current choice
// point) are assembled from the same primitives — as the paper notes, "BAM
// instructions that require sequences (e.g. dereference, unification) are
// implemented via primitive operations".
//
// The translator performs no optimization beyond the variable renaming that
// the front end already guarantees (fresh temporaries everywhere); all
// compaction is delegated to the back end (internal/core).
package expand

import (
	"fmt"

	"symbol/internal/bam"
	"symbol/internal/ic"
	"symbol/internal/term"
	"symbol/internal/word"
)

// Choice-point frame layout (word offsets from the frame base held in B).
// cpEB holds the environment barrier in force while this choice point is
// live: the maximum of the creating frame's barrier and the env-stack top
// at creation. Frames below it may be re-entered by this choice point's
// retry path and must not be reused by allocate.
const (
	cpPrevB = 0
	cpRetry = 1
	cpH     = 2
	cpTR    = 3
	cpE     = 4
	cpESP   = 5
	cpEB    = 6
	cpCP    = 7
	cpN     = 8
	cpArgs  = 9
)

// Environment frame layout (offsets from E).
const (
	envCE = 0
	envCP = 1
	envY  = 2
)

type fixKind uint8

const (
	fixBranch fixKind = iota // patch Inst.Target
	fixWord                  // patch Inst.Word with a Code-tagged address
)

type fixup struct {
	pc   int
	kind fixKind
	lbl  int    // label id, or
	proc string // procedure key when lbl < 0
}

// asm accumulates IC instructions with label fix-ups.
type asm struct {
	code    []ic.Inst
	atoms   *term.Table
	labels  map[int]int    // BAM label id → pc
	procs   map[string]int // "name/arity" → pc
	names   map[int]string
	fixes   []fixup
	next    ic.Reg
	failPC  int
	throwPC int // entry of $throwunwind
}

func (a *asm) here() int { return len(a.code) }

func (a *asm) temp() ic.Reg {
	r := a.next
	a.next++
	return r
}

func (a *asm) emit(in ic.Inst) int {
	a.code = append(a.code, in)
	return len(a.code) - 1
}

func (a *asm) label(id int) {
	a.labels[id] = a.here()
}

func (a *asm) proc(key string) {
	a.procs[key] = a.here()
	a.names[a.here()] = key
}

func (a *asm) name(s string) { a.names[a.here()] = s }

// branch emits a control ICI whose Target is label id (0 = fail routine).
func (a *asm) branch(in ic.Inst, id int) {
	pc := a.emit(in)
	if id == 0 {
		a.code[pc].Target = -1 // patched to failPC at the end
		a.fixes = append(a.fixes, fixup{pc: pc, kind: fixBranch, lbl: 0})
		return
	}
	a.fixes = append(a.fixes, fixup{pc: pc, kind: fixBranch, lbl: id})
}

func (a *asm) branchProc(in ic.Inst, key string) {
	pc := a.emit(in)
	a.fixes = append(a.fixes, fixup{pc: pc, kind: fixBranch, lbl: -1, proc: key})
}

// moviLabel emits a MovI whose Word will be the Code address of label id.
func (a *asm) moviLabel(d ic.Reg, id int) {
	pc := a.emit(ic.Inst{Op: ic.MovI, D: d})
	a.fixes = append(a.fixes, fixup{pc: pc, kind: fixWord, lbl: id})
}

// moviProc emits a MovI whose Word will be the Code address of proc key.
func (a *asm) moviProc(d ic.Reg, key string) {
	pc := a.emit(ic.Inst{Op: ic.MovI, D: d})
	a.fixes = append(a.fixes, fixup{pc: pc, kind: fixWord, lbl: -1, proc: key})
}

func (a *asm) resolve() error {
	for _, f := range a.fixes {
		var target int
		switch {
		case f.lbl == -1:
			pc, ok := a.procs[f.proc]
			if !ok {
				return fmt.Errorf("expand: undefined procedure %s", f.proc)
			}
			target = pc
		case f.lbl == 0:
			target = a.failPC
		default:
			pc, ok := a.labels[f.lbl]
			if !ok {
				return fmt.Errorf("expand: undefined label L%d", f.lbl)
			}
			target = pc
		}
		switch f.kind {
		case fixBranch:
			a.code[f.pc].Target = target
		case fixWord:
			a.code[f.pc].Word = word.Make(word.Code, uint64(target))
		}
	}
	return nil
}

// val materializes a BAM operand into a register (immediates via MovI).
func (a *asm) val(v bam.Val) ic.Reg {
	switch v.K {
	case bam.VReg:
		return v.R
	default:
		t := a.temp()
		a.emit(ic.Inst{Op: ic.MovI, D: t, Word: a.immWord(v)})
		return t
	}
}

// immWord encodes an immediate operand as a tagged word.
func (a *asm) immWord(v bam.Val) word.W {
	switch v.K {
	case bam.VAtom:
		return word.Make(word.Atom, uint64(a.atoms.Intern(v.S)))
	case bam.VInt:
		return word.MakeInt(v.N)
	case bam.VFun:
		return word.MakeFun(a.atoms.Intern(v.S), v.Arity)
	}
	panic("expand: not an immediate")
}

// Translate lowers a BAM unit into an executable IC program.
func Translate(u *bam.Unit, atoms *term.Table) (*ic.Program, error) {
	a := &asm{
		// Lowering takes about 1.5 ICIs per BAM instruction, plus the
		// runtime routines; presizing spares the copies append would make.
		code:   make([]ic.Inst, 0, len(u.Code)*3/2+256),
		atoms:  atoms,
		labels: map[int]int{},
		procs:  map[string]int{},
		names:  map[int]string{},
		next:   u.NextTemp,
	}
	// Atoms the machine needs when converting resource faults to balls.
	for _, s := range []string{"resource_error", "heap", "env", "cp", "trail", "pdl", "zero_divisor"} {
		atoms.Intern(s)
	}
	// The catch runtime routine is emitted only when the program can reach
	// it ($catch/3 references $meta/1, which only exists when call/1 or
	// catch/3 was compiled).
	needCatch := false
	for i := range u.Code {
		in := &u.Code[i]
		if (in.Op == bam.Call || in.Op == bam.Exec) && in.Name == "$catch" && in.Arity == 3 {
			needCatch = true
			break
		}
	}
	a.entryStub(u.Entry)
	a.failRoutine()
	a.unifyRoutine()
	a.throwRoutines(needCatch)
	if needCatch {
		a.catchRoutine()
	}
	for i := range u.Code {
		if err := a.lower(&u.Code[i]); err != nil {
			return nil, err
		}
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	entries := map[int]bool{0: true, a.failPC: true, a.throwPC: true}
	for _, pc := range a.procs {
		entries[pc] = true
	}
	for _, f := range a.fixes {
		if f.kind == fixWord {
			entries[int(a.code[f.pc].Word.Val())] = true
		}
	}
	for pc := range a.code {
		if a.code[pc].Op == ic.Jsr && pc+1 < len(a.code) {
			entries[pc+1] = true
		}
	}
	return &ic.Program{
		Code:    a.code,
		Atoms:   atoms,
		Entry:   0,
		FailPC:  a.failPC,
		Procs:   a.procs,
		Names:   a.names,
		Entries: entries,
		ThrowPC: a.throwPC,
	}, nil
}

// entryStub initializes the machine registers, the choice-point sentinel,
// calls the entry procedure and halts with the success status.
func (a *asm) entryStub(entry string) {
	a.name("$start")
	mi := func(d ic.Reg, w word.W) { a.emit(ic.Inst{Op: ic.MovI, D: d, Word: w}) }
	mi(ic.RegH, word.MakeRef(ic.HeapBase))
	mi(ic.RegESP, word.MakeRef(ic.EnvBase))
	mi(ic.RegE, word.MakeRef(ic.EnvBase))
	mi(ic.RegEB, word.MakeRef(ic.EnvBase))
	mi(ic.RegB, word.MakeRef(ic.CPBase))
	mi(ic.RegTR, word.MakeRef(ic.TrailBase))
	t := a.temp()
	mi(t, word.MakeInt(0))
	a.emit(ic.Inst{Op: ic.St, A: ic.RegB, Imm: cpN, B: t, Reg: ic.RegionCP})
	a.emit(ic.Inst{Op: ic.St, A: ic.RegB, Imm: cpEB, B: ic.RegEB, Reg: ic.RegionCP})
	a.branchProc(ic.Inst{Op: ic.Jsr, D: ic.RegCP}, entry)
	a.emit(ic.Inst{Op: ic.Halt, Imm: 0})
}

// failRoutine is the shared backtrack code: restore H, unwind the trail,
// restore E/ESP/CP and jump to the retry address of the current choice
// point, or halt(1) when the choice-point stack is empty.
func (a *asm) failRoutine() {
	a.failPC = a.here()
	a.name("$fail")
	bottom := word.MakeRef(ic.CPBase)
	// brcmp b eq <bottom>, halt1  — patched with a local forward offset.
	brHalt := a.emit(ic.Inst{Op: ic.BrCmp, A: ic.RegB, Cond: ic.CondEq, HasImm: true, Word: bottom})
	a.emit(ic.Inst{Op: ic.Ld, D: ic.RegH, A: ic.RegB, Imm: cpH, Reg: ic.RegionCP})
	ttr := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: ttr, A: ic.RegB, Imm: cpTR, Reg: ic.RegionCP})
	loop := a.here()
	brDone := a.emit(ic.Inst{Op: ic.BrCmp, A: ic.RegTR, Cond: ic.CondLe, B: ttr})
	a.emit(ic.Inst{Op: ic.Sub, D: ic.RegTR, A: ic.RegTR, HasImm: true, Imm: 1})
	v := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: v, A: ic.RegTR, Imm: 0, Reg: ic.RegionTrail, Mark: ic.MarkTrailUndo})
	a.emit(ic.Inst{Op: ic.St, A: v, Imm: 0, B: v, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Jmp, Target: loop})
	a.code[brDone].Target = a.here()
	a.emit(ic.Inst{Op: ic.Ld, D: ic.RegE, A: ic.RegB, Imm: cpE, Reg: ic.RegionCP})
	a.emit(ic.Inst{Op: ic.Ld, D: ic.RegESP, A: ic.RegB, Imm: cpESP, Reg: ic.RegionCP})
	a.emit(ic.Inst{Op: ic.Ld, D: ic.RegEB, A: ic.RegB, Imm: cpEB, Reg: ic.RegionCP})
	a.emit(ic.Inst{Op: ic.Ld, D: ic.RegCP, A: ic.RegB, Imm: cpCP, Reg: ic.RegionCP})
	ra := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: ra, A: ic.RegB, Imm: cpRetry, Reg: ic.RegionCP})
	a.emit(ic.Inst{Op: ic.JmpR, A: ra})
	a.code[brHalt].Target = a.here()
	a.emit(ic.Inst{Op: ic.Halt, Imm: 1})
}

// unifyRoutine is general unification: iterative, with an explicit
// push-down list in the PDL memory region. Arguments arrive in A14/A15, the
// return address in RV; on mismatch it branches straight to $fail.
func (a *asm) unifyRoutine() {
	u0 := ic.ArgReg(14)
	u1 := ic.ArgReg(15)
	p := a.temp()
	a.proc("$unify")

	pdlBottom := word.MakeRef(ic.PDLBase)
	a.emit(ic.Inst{Op: ic.MovI, D: p, Word: word.MakeRef(ic.PDLBase)})

	loop := a.here()
	// Inline dereference of u0 and u1.
	deref := func(u ic.Reg) {
		t := a.temp()
		top := a.here()
		brOut := a.emit(ic.Inst{Op: ic.BrTag, A: u, Cond: ic.CondNe, Tag: word.Ref})
		a.emit(ic.Inst{Op: ic.Ld, D: t, A: u, Imm: 0, Reg: ic.RegionHeap})
		brSelf := a.emit(ic.Inst{Op: ic.BrCmp, A: t, Cond: ic.CondEq, B: u})
		a.emit(ic.Inst{Op: ic.Mov, D: u, A: t})
		a.emit(ic.Inst{Op: ic.Jmp, Target: top})
		a.code[brOut].Target = a.here()
		a.code[brSelf].Target = a.here()
	}
	deref(u0)
	deref(u1)

	var toNext []int // branch pcs patched to the "next pair" label
	var toFail []int
	brN := a.emit(ic.Inst{Op: ic.BrCmp, A: u0, Cond: ic.CondEq, B: u1})
	toNext = append(toNext, brN)

	br0n := a.emit(ic.Inst{Op: ic.BrTag, A: u0, Cond: ic.CondNe, Tag: word.Ref}) // → u0nonref
	// u0 is an unbound ref.
	br1n := a.emit(ic.Inst{Op: ic.BrTag, A: u1, Cond: ic.CondNe, Tag: word.Ref}) // → bind01
	brOlder := a.emit(ic.Inst{Op: ic.BrCmp, A: u0, Cond: ic.CondLt, B: u1})      // → bind10
	// bind01: u0 := u1
	a.code[br1n].Target = a.here()
	a.emit(ic.Inst{Op: ic.St, A: u0, Imm: 0, B: u1, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.St, A: ic.RegTR, Imm: 0, B: u0, Reg: ic.RegionTrail})
	a.emit(ic.Inst{Op: ic.Add, D: ic.RegTR, A: ic.RegTR, HasImm: true, Imm: 1})
	toNext = append(toNext, a.emit(ic.Inst{Op: ic.Jmp}))
	// bind10: u1 := u0
	a.code[brOlder].Target = a.here()
	a.emit(ic.Inst{Op: ic.St, A: u1, Imm: 0, B: u0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.St, A: ic.RegTR, Imm: 0, B: u1, Reg: ic.RegionTrail})
	a.emit(ic.Inst{Op: ic.Add, D: ic.RegTR, A: ic.RegTR, HasImm: true, Imm: 1})
	toNext = append(toNext, a.emit(ic.Inst{Op: ic.Jmp}))

	// u0nonref:
	a.code[br0n].Target = a.here()
	brBoth := a.emit(ic.Inst{Op: ic.BrTag, A: u1, Cond: ic.CondNe, Tag: word.Ref})
	// u1 unbound: bind u1 := u0.
	a.emit(ic.Inst{Op: ic.St, A: u1, Imm: 0, B: u0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.St, A: ic.RegTR, Imm: 0, B: u1, Reg: ic.RegionTrail})
	a.emit(ic.Inst{Op: ic.Add, D: ic.RegTR, A: ic.RegTR, HasImm: true, Imm: 1})
	toNext = append(toNext, a.emit(ic.Inst{Op: ic.Jmp}))

	// Both non-ref, words differ.
	a.code[brBoth].Target = a.here()
	brLst := a.emit(ic.Inst{Op: ic.BrTag, A: u0, Cond: ic.CondEq, Tag: word.Lst})
	brStr := a.emit(ic.Inst{Op: ic.BrTag, A: u0, Cond: ic.CondEq, Tag: word.Str})
	toFail = append(toFail, a.emit(ic.Inst{Op: ic.Jmp}))

	// Lists: push tail-cell addresses, continue with heads.
	a.code[brLst].Target = a.here()
	toFail = append(toFail, a.emit(ic.Inst{Op: ic.BrTag, A: u1, Cond: ic.CondNe, Tag: word.Lst}))
	t2 := a.temp()
	t3 := a.temp()
	a.emit(ic.Inst{Op: ic.Add, D: t2, A: u0, HasImm: true, Imm: 1})
	a.emit(ic.Inst{Op: ic.St, A: p, Imm: 0, B: t2, Reg: ic.RegionPDL})
	a.emit(ic.Inst{Op: ic.Add, D: t3, A: u1, HasImm: true, Imm: 1})
	a.emit(ic.Inst{Op: ic.St, A: p, Imm: 1, B: t3, Reg: ic.RegionPDL})
	a.emit(ic.Inst{Op: ic.Add, D: p, A: p, HasImm: true, Imm: 2})
	t4 := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: t4, A: u1, Imm: 0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Ld, D: u0, A: u0, Imm: 0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Mov, D: u1, A: t4})
	a.emit(ic.Inst{Op: ic.Jmp, Target: loop})

	// Structures: compare functors, push argument pairs arity..2, continue
	// with argument 1.
	a.code[brStr].Target = a.here()
	toFail = append(toFail, a.emit(ic.Inst{Op: ic.BrTag, A: u1, Cond: ic.CondNe, Tag: word.Str}))
	f0 := a.temp()
	f1 := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: f0, A: u0, Imm: 0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Ld, D: f1, A: u1, Imm: 0, Reg: ic.RegionHeap})
	toFail = append(toFail, a.emit(ic.Inst{Op: ic.BrCmp, A: f0, Cond: ic.CondNe, B: f1}))
	n := a.temp()
	a.emit(ic.Inst{Op: ic.And, D: n, A: f0, HasImm: true, Imm: 0xffff})
	i := a.temp()
	a.emit(ic.Inst{Op: ic.Mov, D: i, A: n})
	pushTop := a.here()
	brArgs1 := a.emit(ic.Inst{Op: ic.BrCmp, A: i, Cond: ic.CondLe, HasImm: true, Imm: 1})
	t5 := a.temp()
	t6 := a.temp()
	a.emit(ic.Inst{Op: ic.Add, D: t5, A: u0, B: i})
	a.emit(ic.Inst{Op: ic.St, A: p, Imm: 0, B: t5, Reg: ic.RegionPDL})
	a.emit(ic.Inst{Op: ic.Add, D: t6, A: u1, B: i})
	a.emit(ic.Inst{Op: ic.St, A: p, Imm: 1, B: t6, Reg: ic.RegionPDL})
	a.emit(ic.Inst{Op: ic.Add, D: p, A: p, HasImm: true, Imm: 2})
	a.emit(ic.Inst{Op: ic.Sub, D: i, A: i, HasImm: true, Imm: 1})
	a.emit(ic.Inst{Op: ic.Jmp, Target: pushTop})
	a.code[brArgs1].Target = a.here()
	t7 := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: t7, A: u1, Imm: 1, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Ld, D: u0, A: u0, Imm: 1, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Mov, D: u1, A: t7})
	a.emit(ic.Inst{Op: ic.Jmp, Target: loop})

	// next: pop a pair or return.
	next := a.here()
	for _, pc := range toNext {
		a.code[pc].Target = next
	}
	brDone := a.emit(ic.Inst{Op: ic.BrCmp, A: p, Cond: ic.CondEq, HasImm: true, Word: pdlBottom})
	a.emit(ic.Inst{Op: ic.Sub, D: p, A: p, HasImm: true, Imm: 2})
	t8 := a.temp()
	t9 := a.temp()
	a.emit(ic.Inst{Op: ic.Ld, D: t8, A: p, Imm: 0, Reg: ic.RegionPDL})
	a.emit(ic.Inst{Op: ic.Ld, D: u0, A: t8, Imm: 0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Ld, D: t9, A: p, Imm: 1, Reg: ic.RegionPDL})
	a.emit(ic.Inst{Op: ic.Ld, D: u1, A: t9, Imm: 0, Reg: ic.RegionHeap})
	a.emit(ic.Inst{Op: ic.Jmp, Target: loop})
	a.code[brDone].Target = a.here()
	a.emit(ic.Inst{Op: ic.JmpR, A: ic.RegRV})

	failj := a.here()
	for _, pc := range toFail {
		a.code[pc].Target = failj
	}
	a.emit(ic.Inst{Op: ic.Jmp, Target: a.failPC})
}
