// Package rename implements the front end's renaming step (paper §3.1):
// "we only apply a variable renaming procedure in order to eliminate
// redundant data-dependencies". Temporaries are already minted fresh by the
// compiler, so the remaining false dependencies are serial pointer-bump
// chains on the machine registers (heap top, trail top): sequences like
//
//	st [h+0], x ; add h,h,1 ; st [h+0], y ; add h,h,1
//
// carry write-after-read and read-after-write chains through H even though
// the stores are independent. Within each basic block this pass folds the
// pointer increments into the addressing offsets,
//
//	st [h+0], x ; st [h+1], y ; add h,h,2
//
// leaving only the true dependencies. Control-flow boundaries materialize
// any pending increment, so machine state at block exits is unchanged.
package rename

import (
	"sort"

	"symbol/internal/ic"
	"symbol/internal/word"
)

// Fold returns a new Program with pointer-increment folding applied per
// basic block; prog itself is left unchanged. All code addresses (branch
// targets, stored code words, symbol tables) are remapped.
func Fold(prog *ic.Program) *ic.Program {
	leaders := findLeaders(prog)

	// Folding only drops instructions: a flush re-materializes at most one
	// Add per pending delta, and each delta absorbed at least one Add.
	out := make([]ic.Inst, 0, len(prog.Code))
	remap := make([]int, len(prog.Code)+1)

	// Pending increments. Only nonzero deltas are kept, so a flush walks
	// just the registers with work to materialize, not every register the
	// program has defined so far: that keeps the pass linear in code size.
	delta := map[ic.Reg]int64{}
	flushOne := func(r ic.Reg) {
		if d := delta[r]; d != 0 {
			out = append(out, ic.Inst{Op: ic.Add, D: r, A: r, HasImm: true, Imm: d})
			delete(delta, r)
		}
	}
	flushAll := func() {
		// Deterministic order.
		regs := make([]ic.Reg, 0, len(delta))
		for r := range delta {
			regs = append(regs, r)
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		for _, r := range regs {
			flushOne(r)
		}
	}

	for pc := 0; pc < len(prog.Code); pc++ {
		if leaders[pc] {
			flushAll()
		}
		remap[pc] = len(out)
		in := prog.Code[pc] // copy

		// Foldable pointer bump: add r, r, imm.
		if in.Op == ic.Add && in.HasImm && in.D == in.A {
			if d := delta[in.A] + in.Imm; d != 0 {
				delta[in.A] = d
			} else {
				delete(delta, in.A)
			}
			continue
		}

		switch in.Op {
		case ic.Ld:
			in.Imm += delta[in.A]
		case ic.St:
			flushOne(in.B) // the stored value must be materialized first
			in.Imm += delta[in.A]
		case ic.Lea:
			in.Imm += delta[in.A]
		default:
			// Any other read of a register with a pending delta must see
			// the materialized value.
			for _, u := range in.Uses(nil) {
				flushOne(u)
			}
		}
		if in.Class() == ic.ClassControl || in.Class() == ic.ClassSys {
			// Materialize everything before control leaves the block or a
			// builtin observes machine state.
			flushAll()
		}
		// A write kills any pending delta on the destination.
		if d := in.Def(); d != ic.None {
			delete(delta, d)
		}
		out = append(out, in)
	}
	flushAll()
	remap[len(prog.Code)] = len(out)

	// Remap code addresses.
	for i := range out {
		switch out[i].Op {
		case ic.BrTag, ic.BrCmp, ic.Jmp, ic.Jsr:
			out[i].Target = remap[out[i].Target]
		case ic.MovI:
			if out[i].Word.Tag() == word.Code {
				out[i].Word = word.Make(word.Code, uint64(remap[out[i].Word.Val()]))
			}
		}
	}
	np := &ic.Program{
		Code:    out,
		Atoms:   prog.Atoms,
		Entry:   remap[prog.Entry],
		FailPC:  remap[prog.FailPC],
		ThrowPC: remap[prog.ThrowPC],
		Procs:   map[string]int{},
		Names:   map[int]string{},
		Entries: map[int]bool{},
	}
	for k, v := range prog.Procs {
		np.Procs[k] = remap[v]
	}
	for k, v := range prog.Names {
		np.Names[remap[k]] = v
	}
	for k := range prog.Entries {
		np.Entries[remap[k]] = true
	}
	return np
}

// findLeaders marks basic-block leader pcs: branch targets, instructions
// after control transfers, and indirect entry points.
func findLeaders(prog *ic.Program) []bool {
	leaders := make([]bool, len(prog.Code)+1)
	leaders[0] = true
	for pc := range prog.Code {
		in := &prog.Code[pc]
		switch in.Op {
		case ic.BrTag, ic.BrCmp, ic.Jmp, ic.Jsr:
			leaders[in.Target] = true
			leaders[pc+1] = true
		case ic.JmpR, ic.Halt:
			leaders[pc+1] = true
		case ic.MovI:
			if in.Word.Tag() == word.Code {
				leaders[in.Word.Val()] = true
			}
		}
	}
	for pc := range prog.Entries {
		leaders[pc] = true
	}
	return leaders
}
