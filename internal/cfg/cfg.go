// Package cfg builds the control-flow graph of an IC program: basic blocks,
// successor/predecessor edges, per-block execution weights from the
// sequential profile, and register liveness. The back end (internal/core)
// uses it for trace formation and for the off-live dependency rule that
// gates speculative code motion above branches (paper §4.3).
package cfg

import (
	"fmt"

	"symbol/internal/emu"
	"symbol/internal/ic"
)

// Block is one basic block: instructions [Start, End) of the program.
type Block struct {
	ID    int
	Start int
	End   int
	// Succs are CFG successor block IDs. For a conditional branch the
	// first successor is the fall-through and the second the taken target.
	Succs []int
	Preds []int
	// Indirect marks blocks reachable through indirect control flow
	// (procedure entries, return points, retry addresses): they must stay
	// addressable in scheduled code.
	Indirect bool
	// Weight is the execution count of the block (profile Expect of its
	// first instruction), 0 without a profile.
	Weight int64

	// Liveness over virtual registers.
	LiveIn  map[ic.Reg]bool
	LiveOut map[ic.Reg]bool
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Graph is the CFG of a program.
type Graph struct {
	Prog    *ic.Program
	Blocks  []*Block
	ByStart map[int]*Block // leader pc → block
	blockOf []int          // pc → block id
}

// BlockOf returns the block containing pc.
func (g *Graph) BlockOf(pc int) *Block { return g.Blocks[g.blockOf[pc]] }

// Build constructs the CFG. prof may be nil.
func Build(prog *ic.Program, prof *emu.Profile) (*Graph, error) {
	n := len(prog.Code)
	leaders := make([]bool, n+1)
	leaders[0] = true
	for pc := 0; pc < n; pc++ {
		in := &prog.Code[pc]
		switch in.Op {
		case ic.BrTag, ic.BrCmp, ic.Jmp, ic.Jsr:
			if in.Target < 0 || in.Target >= n {
				return nil, fmt.Errorf("cfg: pc %d branches to invalid target %d", pc, in.Target)
			}
			leaders[in.Target] = true
			leaders[pc+1] = true
		case ic.JmpR, ic.Halt:
			leaders[pc+1] = true
		}
	}
	for pc := range prog.Entries {
		leaders[pc] = true
	}

	g := &Graph{Prog: prog, ByStart: map[int]*Block{}, blockOf: make([]int, n)}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leaders[pc] {
			b := &Block{ID: len(g.Blocks), Start: start, End: pc}
			b.Indirect = prog.Entries[start]
			g.Blocks = append(g.Blocks, b)
			g.ByStart[start] = b
			for i := start; i < pc; i++ {
				g.blockOf[i] = b.ID
			}
			start = pc
		}
	}

	// Edges.
	for _, b := range g.Blocks {
		last := &prog.Code[b.End-1]
		addEdge := func(toPC int) {
			to := g.ByStart[toPC]
			b.Succs = append(b.Succs, to.ID)
			to.Preds = append(to.Preds, b.ID)
		}
		switch last.Op {
		case ic.BrTag, ic.BrCmp:
			addEdge(b.End) // fall-through first
			addEdge(last.Target)
		case ic.Jmp:
			addEdge(last.Target)
		case ic.Jsr, ic.JmpR, ic.Halt:
			// Interprocedural or terminal: no static successors.
		default:
			if b.End < n {
				addEdge(b.End)
			}
		}
	}

	if prof != nil {
		for _, b := range g.Blocks {
			b.Weight = prof.Expect[b.Start]
		}
	}
	g.computeLiveness()
	return g, nil
}

// boundaryLive is the conservative live set at indirect control-flow
// boundaries (returns, computed jumps, calls): the abstract machine state
// registers plus all argument registers.
func boundaryLive() map[ic.Reg]bool {
	m := map[ic.Reg]bool{
		ic.RegH: true, ic.RegESP: true, ic.RegE: true, ic.RegB: true,
		ic.RegTR: true, ic.RegCP: true, ic.RegRV: true, ic.RegEB: true,
	}
	for i := 0; i < ic.NumArgRegs; i++ {
		m[ic.ArgReg(i)] = true
	}
	return m
}

// computeLiveness runs the standard backward dataflow to a fixed point.
func (g *Graph) computeLiveness() {
	code := g.Prog.Code
	// use/def per block.
	use := make([]map[ic.Reg]bool, len(g.Blocks))
	def := make([]map[ic.Reg]bool, len(g.Blocks))
	exitLive := make([]map[ic.Reg]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		u := map[ic.Reg]bool{}
		d := map[ic.Reg]bool{}
		var scratch []ic.Reg
		for pc := b.Start; pc < b.End; pc++ {
			in := &code[pc]
			scratch = in.Uses(scratch[:0])
			for _, r := range scratch {
				if !d[r] {
					u[r] = true
				}
			}
			if dst := in.Def(); dst != ic.None {
				d[dst] = true
			}
		}
		use[b.ID], def[b.ID] = u, d
		switch code[b.End-1].Op {
		case ic.Jsr, ic.JmpR:
			exitLive[b.ID] = boundaryLive()
		case ic.Halt:
			exitLive[b.ID] = map[ic.Reg]bool{}
		}
		b.LiveIn = map[ic.Reg]bool{}
		b.LiveOut = map[ic.Reg]bool{}
	}

	changed := true
	for changed {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			out := map[ic.Reg]bool{}
			if el := exitLive[b.ID]; el != nil {
				for r := range el {
					out[r] = true
				}
			}
			for _, s := range b.Succs {
				for r := range g.Blocks[s].LiveIn {
					out[r] = true
				}
			}
			in := map[ic.Reg]bool{}
			for r := range use[b.ID] {
				in[r] = true
			}
			for r := range out {
				if !def[b.ID][r] {
					in[r] = true
				}
			}
			if len(out) != len(b.LiveOut) || len(in) != len(b.LiveIn) {
				changed = true
			}
			b.LiveOut = out
			b.LiveIn = in
		}
	}
}

// BranchProbability returns the probability that the conditional branch
// ending block b is taken, and whether the block ever executed.
func (g *Graph) BranchProbability(prof *emu.Profile, b *Block) (float64, bool) {
	last := b.End - 1
	in := &g.Prog.Code[last]
	if !in.IsCondBranch() || prof == nil {
		return 0, false
	}
	return prof.Probability(last)
}

// Validate checks structural invariants; used by tests.
func (g *Graph) Validate() error {
	for _, b := range g.Blocks {
		if b.Start >= b.End {
			return fmt.Errorf("cfg: empty block %d", b.ID)
		}
		for pc := b.Start; pc < b.End-1; pc++ {
			if g.Prog.Code[pc].IsBranch() {
				return fmt.Errorf("cfg: control op mid-block at pc %d", pc)
			}
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(g.Blocks) {
				return fmt.Errorf("cfg: block %d has invalid successor %d", b.ID, s)
			}
		}
	}
	return nil
}
