package vliw

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/term"
	"symbol/internal/word"
)

// The meaning of every ICI is written out in the fused and plain predecoded
// loops (emu's runFast), in the reference interpreter (runLegacy, on the
// shared exec.ALU and exec.Taken helpers) and in Sim. TestOpcodeSemantics
// runs one- and two-ICI programs for every opcode Decode1 emits and every
// superinstruction the fusion pass builds on all four, with edge operands,
// and requires them to agree. The VLIW simulator departs from the
// sequential machines in exactly these two ways, both dismissals of an
// operation the scheduler may have speculated above its guard:
const (
	dismissZeroDivisor = "zero divisor gives 0"
	dismissLoadRange   = "out-of-range load gives 0"
)

// Body branch targets are written as these placeholders and resolved when
// the program is built.
const (
	exitTaken = -1000 // the taken exit: MovI rMark, 2; Halt 0 (at pc 0)
	exitNext  = -1001 // the pc after the body: MovI rMark, 1; Halt 0
	inBody    = -2000 // inBody+i: the body's i-th pc
)

var (
	r0    = ic.FirstTemp
	r1    = ic.FirstTemp + 1
	r2    = ic.FirstTemp + 2
	r3    = ic.FirstTemp + 3
	rPoke = ic.FirstTemp + 6 // scratch for memory setup
	rMark = ic.FirstTemp + 7 // which exit the program left by
)

// semCase is one program: setup ICIs, then a one- or two-ICI body, or a
// dereference loop.
type semCase struct {
	init []ic.Inst
	body []ic.Inst
	// fused is the superinstruction the body must fuse into.
	fused exec.XCode
	// dismiss names the VLIW dismissal the case exercises ("" for none);
	// vbody is then the body as the VLIW must execute it, the dismissed
	// operation replaced by a MovI of its dismissed result.
	dismiss string
	vbody   []ic.Inst
	layout  ic.Layout
}

func (c *semCase) String() string {
	s := ""
	for _, in := range c.init {
		s += in.String() + "; "
	}
	s += "|"
	for _, in := range c.body {
		s += " " + in.String() + ";"
	}
	return s
}

// program assembles init and body between the two exits. The body's first
// pc and the exit after it are marked jump targets, so the fusion pass
// fuses a two-ICI body with itself and nothing else.
func (c *semCase) program(body []ic.Inst) (*ic.Program, int) {
	code := []ic.Inst{
		{Op: ic.MovI, D: rMark, Word: word.MakeInt(2)},
		{Op: ic.Halt},
	}
	entry := len(code)
	code = append(code, c.init...)
	start := len(code)
	next := start + len(body)
	for _, in := range body {
		switch in.Target {
		case exitTaken:
			in.Target = 0
		case exitNext:
			in.Target = next
		default:
			if in.Target >= inBody && in.Target < inBody+len(body) {
				in.Target += start - inBody
			}
		}
		code = append(code, in)
	}
	code = append(code,
		ic.Inst{Op: ic.MovI, D: rMark, Word: word.MakeInt(1)},
		ic.Inst{Op: ic.Halt})
	return &ic.Program{
		Code:    code,
		Atoms:   term.NewTable(),
		Entry:   entry,
		Names:   map[int]string{},
		Entries: map[int]bool{start: true, next: true},
	}, start
}

// linked lays prog out one ICI per word, each followed by an empty word so
// every result (loads included) is ready when the next word issues.
func linked(prog *ic.Program) *Program {
	const stride = 2
	words := make([]Word, len(prog.Code)*stride)
	wordOf := map[int]int{}
	for pc, in := range prog.Code {
		switch in.Op {
		case ic.BrTag, ic.BrCmp, ic.Jmp, ic.Jsr:
			in.Target *= stride
		}
		words[pc*stride] = Word{{Inst: in, PC: pc}}
		wordOf[pc] = pc * stride
	}
	p := mk(words, prog.Entry*stride)
	p.IC = prog
	p.WordOf = wordOf
	return p
}

// outcome is what the comparison sees of one run.
type outcome struct {
	Failed bool
	Kind   fault.Kind
	Status int
	Output string
	Regs   []word.W
	Mem    []word.W
}

// memWindows are the memory the cases write: the heap cells they load from
// and store to (including the edge of a shrunken heap), the start of the
// ball area and the end of the image.
var memWindows = [][2]uint64{
	{ic.HeapBase - 4, ic.HeapBase + 8},
	{ic.BallBase, ic.BallBase + 8},
	{ic.MemWords - 4, ic.MemWords},
}

func observe(st *ic.State, n int, status int, output string, err error) outcome {
	o := outcome{Failed: err != nil, Kind: fault.KindOf(err), Status: status, Output: output}
	o.Regs = slices.Clone(st.Regs(n))
	for _, w := range memWindows {
		o.Mem = append(o.Mem, st.Mem()[w[0]:w[1]]...)
	}
	st.Reset()
	return o
}

func runSeq(prog *ic.Program, st *ic.State, layout ic.Layout, o emu.Options) (outcome, int64) {
	o.State, o.Layout = st, layout
	res, err := emu.Run(prog, o)
	var status int
	var output string
	var steps int64
	if err == nil {
		status, output, steps = res.Status, res.Output, res.Steps
	}
	return observe(st, int(prog.MaxReg())+1, status, output, err), steps
}

func runVLIW(prog *ic.Program, st *ic.State, layout ic.Layout) outcome {
	p := linked(prog)
	res, err := Sim(p, SimOptions{State: st, Layout: layout})
	var status int
	var output string
	if err == nil {
		status, output = res.Status, res.Output
	}
	return observe(st, int(p.MaxReg())+1, status, output, err)
}

// Edge operands.
var (
	maxVal = int64(1)<<59 - 1 // value-field extremes
	minVal = -int64(1) << 59
	// aWords are first operands: every tag, the cdr bit, both extremes.
	// (The code address lies past every test program: a MovI of an
	// in-range one would mark a jump target and block fusion.)
	aWords = []word.W{
		word.Make(word.Ref, ic.HeapBase), word.MakeInt(12345), word.MakeInt(-7),
		word.Make(word.Atom, 1), word.Make(word.Lst, 99), word.Make(word.Str, 1<<40),
		word.MakeFun(3, 2), word.Make(word.Code, 1<<30),
		word.MakeInt(maxVal), word.MakeInt(minVal), word.MakeInt(0).WithCdr(),
		word.Make(word.Str, 1<<60-1).WithCdr(),
	}
	// imms are immediates and register second operands: zero divisors,
	// shifts of 64 and more and negative ones, and the int64 extremes.
	imms = []int64{
		0, 1, -1, 3, 63, 64, 65, 127, -64, maxVal, minVal,
		math.MinInt64, math.MaxInt64,
	}
	tags = []word.Tag{word.Ref, word.Int, word.Atom, word.Lst, word.Str, word.Fun, word.Code}
)

func set(r ic.Reg, w word.W) ic.Inst { return ic.Inst{Op: ic.MovI, D: r, Word: w} }

// poke stores w at addr during setup.
func poke(addr uint64, w word.W) []ic.Inst {
	return []ic.Inst{
		set(rPoke, word.MakeRef(addr)),
		set(rMark, w),
		{Op: ic.St, A: rPoke, B: rMark},
		set(rMark, 0),
	}
}

// heapInit fills the first heap cells the load cases read.
func heapInit() []ic.Inst {
	var in []ic.Inst
	for i, w := range []word.W{
		word.MakeRef(ic.HeapBase), word.Make(word.Lst, 5).WithCdr(),
		word.MakeInt(minVal), word.MakeFun(2, 3),
	} {
		in = append(in, poke(ic.HeapBase+uint64(i), w)...)
	}
	return in
}

// inRange reports whether a load from base+imm reads memory.
func inRange(base word.W, imm int64) bool {
	return base.Val()+uint64(imm) < ic.MemWords
}

func aluCases() []semCase {
	var cs []semCase
	for op := ic.Add; op <= ic.Shr; op++ {
		for _, a := range aWords {
			for _, b := range imms {
				// Immediate form.
				body := ic.Inst{Op: op, D: r0, A: r1, HasImm: true, Imm: b}
				c := semCase{init: []ic.Inst{set(r1, a)}, body: []ic.Inst{body}}
				if (op == ic.Div || op == ic.Mod) && b == 0 {
					c.dismiss = dismissZeroDivisor
					c.vbody = []ic.Inst{set(r0, word.Make(a.Tag(), 0))}
				}
				cs = append(cs, c)
				// Register form; the second operand's tag and cdr bit
				// must not matter.
				bw := word.Make(tags[int(uint64(b)%7)], uint64(b)).WithCdr()
				body = ic.Inst{Op: op, D: r0, A: r1, B: r2, Imm: math.MaxInt64}
				c = semCase{init: []ic.Inst{set(r1, a), set(r2, bw)}, body: []ic.Inst{body}}
				if (op == ic.Div || op == ic.Mod) && bw.Int() == 0 {
					c.dismiss = dismissZeroDivisor
					c.vbody = []ic.Inst{set(r0, word.Make(a.Tag(), 0))}
				}
				cs = append(cs, c)
			}
		}
	}
	return cs
}

func moveCases() []semCase {
	var cs []semCase
	one := func(init []ic.Inst, in ic.Inst) {
		cs = append(cs, semCase{init: init, body: []ic.Inst{in}})
	}
	for _, a := range aWords {
		init := []ic.Inst{set(r1, a)}
		for _, t := range tags {
			one(init, ic.Inst{Op: ic.MkTag, D: r0, A: r1, Tag: t})
			for _, imm := range []int64{0, -1, maxVal, math.MinInt64, math.MaxInt64} {
				one(init, ic.Inst{Op: ic.Lea, D: r0, A: r1, Tag: t, Imm: imm})
			}
		}
		one(init, ic.Inst{Op: ic.GetTag, D: r0, A: r1})
		one(init, ic.Inst{Op: ic.Mov, D: r0, A: r1})
		one(init, ic.Inst{Op: ic.Mov, D: r0, A: r1, Mark: ic.MarkCPPush})
		one(nil, ic.Inst{Op: ic.MovI, D: r0, Word: a, Imm: math.MinInt64})
	}
	one(nil, ic.Inst{Op: ic.Nop})
	return cs
}

// loadCase loads base+imm into r0; ops after it in the body see the result.
func loadCase(base word.W, imm int64, mark ic.Mark, rest ...ic.Inst) semCase {
	ld := ic.Inst{Op: ic.Ld, D: r0, A: r1, Imm: imm, Mark: mark}
	c := semCase{
		init: append(heapInit(), set(r1, base)),
		body: append([]ic.Inst{ld}, rest...),
	}
	if !inRange(base, imm) {
		c.dismiss = dismissLoadRange
		c.vbody = append([]ic.Inst{set(r0, 0)}, rest...)
	}
	return c
}

var loadBases = []word.W{
	word.MakeRef(ic.HeapBase), word.Make(word.Str, ic.HeapBase+1).WithCdr(),
	word.MakeInt(-12345), word.Make(word.Lst, ic.MemWords-1),
}

var loadImms = []int64{0, 1, 3, -1, 1 << 40, math.MinInt64, math.MaxInt64}

func memoryCases() []semCase {
	var cs []semCase
	for _, base := range loadBases {
		for _, imm := range loadImms {
			cs = append(cs, loadCase(base, imm, ic.MarkNone))
			cs = append(cs, loadCase(base, imm, ic.MarkTrailUndo))
		}
	}
	// Stores: in range, out of the image, and past a shrunken heap's end
	// (region-annotated, so it faults as an overflow).
	small := ic.Layout{HeapWords: 4}
	for _, base := range loadBases {
		for _, imm := range append(loadImms, 4, 5) {
			for _, reg := range []ic.Region{ic.RegionUnknown, ic.RegionHeap} {
				for _, layout := range []ic.Layout{{}, small} {
					cs = append(cs, semCase{
						init:   []ic.Inst{set(r1, base), set(r2, word.MakeInt(minVal).WithCdr())},
						body:   []ic.Inst{{Op: ic.St, A: r1, B: r2, Imm: imm, Reg: reg}},
						layout: layout,
					})
				}
			}
		}
	}
	return cs
}

func branchCases() []semCase {
	var cs []semCase
	one := func(init []ic.Inst, in ic.Inst) {
		cs = append(cs, semCase{init: init, body: []ic.Inst{in}})
	}
	for _, a := range aWords {
		init := []ic.Inst{set(r1, a)}
		for _, t := range tags {
			for _, cond := range []ic.Cond{ic.CondEq, ic.CondNe, ic.CondLt} {
				one(init, ic.Inst{Op: ic.BrTag, A: r1, Tag: t, Cond: cond, Target: exitTaken})
			}
		}
	}
	// Register forms: Eq/Ne compare whole words (tag and cdr bit
	// included), the ordered conditions signed value fields.
	words := []word.W{
		word.MakeInt(5), word.MakeInt(5).WithCdr(), word.Make(word.Atom, 5),
		word.MakeInt(-5), word.MakeInt(maxVal), word.MakeInt(minVal),
	}
	for cond := ic.CondEq; cond <= ic.CondGe; cond++ {
		for _, a := range words {
			for _, b := range words {
				one([]ic.Inst{set(r1, a), set(r2, b)},
					ic.Inst{Op: ic.BrCmp, A: r1, B: r2, Cond: cond, Target: exitTaken})
			}
			// Immediate forms: Eq/Ne take the full word from Word, the
			// ordered conditions the value from Imm. The other field holds
			// a decoy that would change the outcome if it were read.
			for _, w := range words {
				for _, imm := range []int64{0, 5, -5, int64(w), minVal, math.MinInt64, math.MaxInt64} {
					one([]ic.Inst{set(r1, a)},
						ic.Inst{Op: ic.BrCmp, A: r1, HasImm: true, Word: w, Imm: imm, Cond: cond, Target: exitTaken})
				}
			}
		}
	}
	return cs
}

func controlCases() []semCase {
	var cs []semCase
	one := func(init []ic.Inst, in ic.Inst) {
		cs = append(cs, semCase{init: init, body: []ic.Inst{in}})
	}
	one(nil, ic.Inst{Op: ic.Jmp, Target: exitTaken})
	for _, a := range []word.W{word.Make(word.Code, 0), word.MakeInt(0).WithCdr(), word.Make(word.Code, 9999)} {
		one([]ic.Inst{set(r1, a)}, ic.Inst{Op: ic.JmpR, A: r1})
	}
	one(nil, ic.Inst{Op: ic.Jsr, D: r0, Target: exitTaken})
	for _, imm := range []int64{0, 1, 2, 5} {
		one(nil, ic.Inst{Op: ic.Halt, Imm: imm})
	}
	one(nil, ic.Inst{Op: ic.Op(200), D: r0, A: r1, B: r2})
	return cs
}

func sysCases() []semCase {
	var cs []semCase
	one := func(init []ic.Inst, in ic.Inst) {
		cs = append(cs, semCase{init: init, body: []ic.Inst{in}})
	}
	for _, a := range []word.W{word.MakeInt(-42), word.MakeInt(maxVal), word.Make(word.Atom, 0), word.MakeRef(ic.HeapBase)} {
		one([]ic.Inst{set(r1, a)}, ic.Inst{Op: ic.SysOp, Sys: ic.SysWrite, A: r1, B: ic.None})
		one([]ic.Inst{set(r1, a)}, ic.Inst{Op: ic.SysOp, Sys: ic.SysBallPut, A: r1, B: ic.None})
		for _, b := range []word.W{word.MakeInt(-42), word.MakeInt(7), word.Make(word.Atom, 1)} {
			one([]ic.Inst{set(r1, a), set(r2, b)}, ic.Inst{Op: ic.SysOp, Sys: ic.SysCompare, A: r1, B: r2})
		}
	}
	for _, a := range []word.W{word.MakeInt(65), word.MakeInt(0x141), word.MakeInt(-1)} {
		one([]ic.Inst{set(r1, a)}, ic.Inst{Op: ic.SysOp, Sys: ic.SysWriteCode, A: r1, B: ic.None})
	}
	one(nil, ic.Inst{Op: ic.SysOp, Sys: ic.SysNl, A: ic.None, B: ic.None})
	for _, k := range []fault.Kind{fault.ZeroDivide, fault.HeapOverflow, fault.StepLimit} {
		one(nil, ic.Inst{Op: ic.SysOp, Sys: ic.SysFault, A: ic.None, B: ic.None, Imm: int64(k)})
	}
	one(nil, ic.Inst{Op: ic.SysOp, Sys: ic.SysNone, A: ic.None, B: ic.None})
	return cs
}

// fusedCases builds every superinstruction of fuse.go, including faults in
// either constituent, and the pairs the catalog leaves out (fused 0).
func fusedCases() []semCase {
	var cs []semCase
	pair := func(code exec.XCode, init []ic.Inst, a, b ic.Inst, layout ic.Layout) {
		cs = append(cs, semCase{init: init, body: []ic.Inst{a, b}, fused: code, layout: layout})
	}
	small := ic.Layout{HeapWords: 4}
	for _, base := range loadBases {
		for _, imm := range []int64{0, 1, math.MaxInt64} {
			for _, t := range []word.Tag{word.Ref, word.Lst} {
				cs = append(cs,
					loadCase(base, imm, ic.MarkNone, ic.Inst{Op: ic.BrTag, A: r0, Tag: t, Target: exitTaken}),
					loadCase(base, imm, ic.MarkNone, ic.Inst{Op: ic.BrTag, A: r0, Tag: t, Cond: ic.CondNe, Target: exitTaken}))
			}
			cs = append(cs,
				loadCase(base, imm, ic.MarkNone, ic.Inst{Op: ic.BrCmp, A: r0, B: r1, Cond: ic.CondEq, Target: exitTaken}),
				loadCase(base, imm, ic.MarkNone, ic.Inst{Op: ic.BrCmp, A: r0, B: r1, Cond: ic.CondNe, Target: exitTaken}))
			c := loadCase(base, imm, ic.MarkNone, ic.Inst{Op: ic.Ld, D: r2, A: rPoke, Imm: 1})
			c.fused = exec.XFLdLd
			cs = append(cs, c)
			c = loadCase(base, imm, ic.MarkNone, ic.Inst{Op: ic.Mov, D: r2, A: r0})
			c.fused = exec.XFLdMov
			cs = append(cs, c)
		}
		// The second load of a pair out of range (the first reads cell 0,
		// a self-reference to HeapBase).
		c := loadCase(word.MakeRef(ic.HeapBase), 0, ic.MarkNone, ic.Inst{Op: ic.Ld, D: r2, A: r1, Imm: math.MinInt64})
		c.fused = exec.XFLdLd
		c.dismiss = dismissLoadRange
		c.vbody = []ic.Inst{c.body[0], set(r2, 0)}
		cs = append(cs, c)
	}
	for _, a := range aWords {
		for _, cond := range []ic.Cond{ic.CondEq, ic.CondNe} {
			for _, w := range []word.W{word.MakeInt(int64(a.Tag())), word.MakeInt(int64(word.Lst))} {
				pair(0, []ic.Inst{set(r1, a)},
					ic.Inst{Op: ic.GetTag, D: r0, A: r1},
					ic.Inst{Op: ic.BrCmp, A: r0, HasImm: true, Word: w, Imm: math.MinInt64, Cond: cond, Target: exitTaken},
					ic.Layout{})
			}
		}
		for _, cond := range []ic.Cond{ic.CondEq, ic.CondNe, ic.CondLt, ic.CondGe} {
			pair(exec.XFCMovR, []ic.Inst{set(r1, a), set(r2, word.MakeInt(12345)), set(r3, word.MakeInt(9))},
				ic.Inst{Op: ic.BrCmp, A: r1, B: r2, Cond: cond, Target: exitNext},
				ic.Inst{Op: ic.Mov, D: r0, A: r3},
				ic.Layout{})
		}
		init := []ic.Inst{set(r1, a), set(r2, word.Make(word.Lst, 7))}
		pair(exec.XFMovJmp, init, ic.Inst{Op: ic.Mov, D: r0, A: r1}, ic.Inst{Op: ic.Jmp, Target: exitTaken}, ic.Layout{})
		pair(exec.XFMovMov, init, ic.Inst{Op: ic.Mov, D: r0, A: r1}, ic.Inst{Op: ic.Mov, D: r2, A: r0}, ic.Layout{})
		pair(exec.XFMovBrTagEq, init, ic.Inst{Op: ic.Mov, D: r0, A: r1}, ic.Inst{Op: ic.BrTag, A: r0, Tag: word.Int, Target: exitTaken}, ic.Layout{})
		pair(0, init, ic.Inst{Op: ic.Mov, D: r0, A: r1}, ic.Inst{Op: ic.BrTag, A: r2, Tag: word.Lst, Cond: ic.CondNe, Target: exitTaken}, ic.Layout{})
	}
	// Store pairs, with a store past a shrunken heap in either constituent.
	for _, layout := range []ic.Layout{{}, small} {
		for _, off := range []int64{2, 3, 4} {
			init := []ic.Inst{set(r1, word.MakeRef(ic.HeapBase)), set(r2, word.MakeInt(-3).WithCdr()), set(r3, word.Make(word.Lst, 9))}
			st1 := ic.Inst{Op: ic.St, A: r1, B: r2, Imm: off, Reg: ic.RegionHeap}
			st2 := ic.Inst{Op: ic.St, A: r1, B: r3, Imm: off + 1, Reg: ic.RegionHeap}
			for _, imm := range []int64{1, -1, math.MinInt64} {
				pair(exec.XFStAdd, init, st1, ic.Inst{Op: ic.Add, D: r1, A: r1, HasImm: true, Imm: imm}, layout)
			}
			pair(exec.XFStSt, init, st1, st2, layout)
			pair(exec.XFStMovI, init, st1, set(r0, word.MakeInt(maxVal)), layout)
			pair(exec.XFMovISt, init, set(r3, word.MakeInt(minVal)), st2, layout)
		}
	}
	return cs
}

// derefBody is expand's dereference loop (bam.Deref) on r0 with temp r2,
// behind Mov r0, r1 when mov is set.
func derefBody(mov bool) []ic.Inst {
	var body []ic.Inst
	if mov {
		body = append(body, ic.Inst{Op: ic.Mov, D: r0, A: r1})
	}
	top := inBody + len(body)
	return append(body,
		ic.Inst{Op: ic.BrTag, A: r0, Cond: ic.CondNe, Tag: word.Ref, Target: exitNext},
		ic.Inst{Op: ic.Ld, D: r2, A: r0, Reg: ic.RegionHeap},
		ic.Inst{Op: ic.BrCmp, A: r2, Cond: ic.CondEq, B: r0, Target: exitNext},
		ic.Inst{Op: ic.Mov, D: r0, A: r2},
		ic.Inst{Op: ic.Jmp, Target: top})
}

// derefCase dereferences start, with the heap cells at HeapBase+i set to
// cells[i] (0 keeps heapInit's contents).
func derefCase(mov bool, start word.W, cells ...word.W) semCase {
	c := semCase{init: heapInit(), body: derefBody(mov), fused: exec.XFDeref}
	for i, w := range cells {
		if w != 0 {
			c.init = append(c.init, poke(ic.HeapBase+uint64(i), w)...)
		}
	}
	if mov {
		c.fused = exec.XFMovDeref
		c.init = append(c.init, set(r0, word.MakeInt(-1)), set(r1, start))
	} else {
		c.init = append(c.init, set(r0, start))
	}
	return c
}

// outOfRange marks a dereference whose chase reaches an out-of-range load
// as a dismissal: the VLIW loads 0, a Ref to address 0, which holds 0, a
// self-reference, so it leaves the loop with 0 in r0 and r2.
func outOfRange(c semCase) semCase {
	c.dismiss = dismissLoadRange
	c.vbody = []ic.Inst{set(r2, 0), set(r0, 0)}
	return c
}

// derefCases exit the dereference loop, bare and behind its Mov, on a
// non-Ref word at once and after chases, on a self-reference after 0, 1
// and 3 chases (and after one for a Ref that differs from the cell it
// points at only in the cdr bit), and on an out-of-range load at once and
// after a chase.
func derefCases() []semCase {
	h := func(i uint64) word.W { return word.MakeRef(ic.HeapBase + i) }
	far := word.MakeRef(1 << 40)
	var cs []semCase
	for _, mov := range []bool{false, true} {
		for _, a := range aWords {
			if a.Tag() != word.Ref {
				cs = append(cs, derefCase(mov, a))
			}
		}
		cs = append(cs,
			derefCase(mov, h(1)),                            // a Lst after one chase
			derefCase(mov, h(6), 0, 0, 0, 0, 0, h(2), h(5)), // an Int after three
			derefCase(mov, h(0)),
			derefCase(mov, h(0).WithCdr()),
			derefCase(mov, h(5), 0, 0, 0, 0, 0, h(0)),
			derefCase(mov, h(7), 0, 0, 0, 0, 0, h(0), h(5), h(6)),
			derefCase(mov, word.MakeRef(ic.MemWords-1)), // the last word, then address 0
			outOfRange(derefCase(mov, far)),
			outOfRange(derefCase(mov, h(5), 0, 0, 0, 0, 0, far)),
		)
	}
	return cs
}

// TestOpcodeSemantics runs every case on fused, nofuse, legacy and Sim.
// The three sequential loops must agree exactly (steps included); Sim must
// agree with them except where the case names a dismissal, and there it
// must agree with the dismissed body run on the reference interpreter.
func TestOpcodeSemantics(t *testing.T) {
	var cases []semCase
	for _, gen := range []func() []semCase{aluCases, moveCases, memoryCases, branchCases, controlCases, sysCases, fusedCases, derefCases} {
		cases = append(cases, gen()...)
	}
	st, _ := ic.Acquire()
	defer st.Release()

	seen := map[exec.XCode]bool{}
	dismissals := map[string]int{}
	errs := 0
	report := func(c *semCase, format string, args ...any) {
		errs++
		if errs <= 20 {
			t.Errorf("%s: %s", c, fmt.Sprintf(format, args...))
		}
	}
	for i := range cases {
		c := &cases[i]
		prog, start := c.program(c.body)
		xp := exec.Of(prog)
		for pc := start; pc < start+len(c.body); pc++ {
			seen[xp.Plain().Ops[pc].Code] = true
		}
		if c.fused != 0 {
			if got := xp.Fused.Ops[xp.Fused.XOf[start]].Code; got != c.fused {
				report(c, "fused into %v, want %v", got, c.fused)
			}
			seen[c.fused] = true
		}

		legacy, lsteps := runSeq(prog, st, c.layout, emu.Options{Legacy: true})
		for _, mode := range []struct {
			name string
			opts emu.Options
		}{{"fused", emu.Options{}}, {"nofuse", emu.Options{NoFuse: true}}} {
			got, steps := runSeq(prog, st, c.layout, mode.opts)
			if !reflect.DeepEqual(got, legacy) || steps != lsteps {
				report(c, "%s differs from legacy:\n got %+v (%d steps)\nwant %+v (%d steps)", mode.name, got, steps, legacy, lsteps)
			}
		}

		vliw := runVLIW(prog, st, c.layout)
		want := legacy
		if c.dismiss != "" {
			dismissals[c.dismiss]++
			wantKind := map[string]fault.Kind{dismissZeroDivisor: fault.ZeroDivide, dismissLoadRange: fault.InvalidMemory}[c.dismiss]
			if legacy.Kind != wantKind {
				report(c, "sequential fault %v, want %v (%s)", legacy.Kind, wantKind, c.dismiss)
			}
			dprog, _ := c.program(c.vbody)
			want, _ = runSeq(dprog, st, c.layout, emu.Options{Legacy: true})
		}
		if !reflect.DeepEqual(vliw, want) {
			report(c, "vliw differs (dismissal %q):\n got %+v\nwant %+v", c.dismiss, vliw, want)
		}
	}
	if errs > 20 {
		t.Errorf("... %d mismatches in all", errs)
	}

	for code := exec.XCode(1); code < exec.NumCodes; code++ {
		if !seen[code] {
			t.Errorf("no case covers %v", code)
		}
	}
	for _, d := range []string{dismissZeroDivisor, dismissLoadRange} {
		if dismissals[d] == 0 {
			t.Errorf("no case exercises the %q dismissal", d)
		}
	}
	t.Logf("%d cases; dismissals %v", len(cases), dismissals)
}

// TestDerefStepLimits lands MaxSteps on every constituent of a dereference
// op, bare and behind its Mov: on the head and on each ICI of every turn of
// a chase. The fused and plain loops must stop where the legacy loop stops,
// with the same error (fault pc and ICI included), registers and memory;
// with budget to spare they must report its Steps and Stats.
func TestDerefStepLimits(t *testing.T) {
	st, _ := ic.Acquire()
	defer st.Release()
	h := func(i uint64) word.W { return word.MakeRef(ic.HeapBase + i) }
	for _, mov := range []bool{false, true} {
		for _, c := range []semCase{
			derefCase(mov, word.MakeInt(7)),
			derefCase(mov, h(7), 0, 0, 0, 0, 0, h(0), h(5), h(6)),
			derefCase(mov, h(6), 0, 0, 0, 0, 0, h(2), h(5)),
			derefCase(mov, h(5), 0, 0, 0, 0, 0, word.MakeRef(1<<40)),
		} {
			prog, _ := c.program(c.body)
			run := func(o emu.Options) (outcome, string, *emu.Result) {
				o.State = st
				res, err := emu.Run(prog, o)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				var status int
				if res != nil {
					status = res.Status
					res.Stats.Wall = 0
				}
				return observe(st, int(prog.MaxReg())+1, status, "", err), msg, res
			}
			_, _, full := run(emu.Options{Legacy: true})
			total := int64(len(prog.Code)) * 4 // past the end of a faulting run
			if full != nil {
				total = full.Steps + 1
			}
			for max := int64(1); max <= total; max++ {
				want, wantErr, wantRes := run(emu.Options{Legacy: true, MaxSteps: max})
				for _, mode := range []emu.Options{{MaxSteps: max}, {MaxSteps: max, NoFuse: true}} {
					got, gotErr, gotRes := run(mode)
					if gotErr != wantErr || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s\nMaxSteps %d, nofuse %v: got %q %+v\nwant %q %+v",
							&c, max, mode.NoFuse, gotErr, got, wantErr, want)
					}
					if (gotRes == nil) != (wantRes == nil) ||
						gotRes != nil && (gotRes.Steps != wantRes.Steps || gotRes.Stats != wantRes.Stats) {
						t.Fatalf("%s\nMaxSteps %d, nofuse %v: result %+v, want %+v", &c, max, mode.NoFuse, gotRes, wantRes)
					}
				}
			}
		}
	}
}
