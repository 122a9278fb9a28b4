// Package vliw holds the compacted very-long-instruction-word program
// representation and its cycle-level simulator. One word issues per cycle
// with a unique control flow (paper §3); each word carries up to one
// memory, ALU, control and move operation per unit. The simulator executes
// the compacted code for real — against the same tagged memory model as the
// sequential emulator — so every reported cycle count is measured, not
// estimated, and the observable results can be checked for equivalence.
package vliw

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"symbol/internal/exec"
	"symbol/internal/ic"
	"symbol/internal/machine"
)

// Op is one operation slot of a word. Branch targets have been linked to
// word indexes; PC is the operation's address in the original IC program
// (used for return-address generation and debugging).
type Op struct {
	Inst ic.Inst
	PC   int
}

// Word is one very long instruction: the set of operations issued in one
// cycle. Slot order encodes branch priority (original program order).
type Word []Op

// Program is a compacted, linked, executable VLIW program.
type Program struct {
	Words  []Word
	Entry  int         // entry word index
	IC     *ic.Program // the original program (atoms, symbol names)
	WordOf map[int]int // original pc of each trace head / entry → word index
	Config machine.Config
	// TraceBounds marks the first word index of every emitted trace, used
	// by listings and statistics.
	TraceBounds []int

	maxRegOnce sync.Once
	maxReg     ic.Reg

	xwOnce sync.Once
	xwords [][]exec.Op
	// reads holds, per word, the distinct registers its operations read
	// (ic.Inst.Uses, in slot order): what Sim checks against the
	// producers' latencies when the word issues. Built with xwords.
	reads [][]ic.Reg
}

// XWords returns the predecoded operation slots, one exec.Op per vliw.Op
// with the same word/slot shape as Words. The simulator dispatches on the
// dense opcodes (operand forms resolved, no HasImm/Sys selector tests);
// branch targets stay word indices, exactly as in the linked Inst. Built
// once and cached, so repeated simulations of a pooled program do not
// re-decode. Words must not be mutated after the first call.
func (p *Program) XWords() [][]exec.Op {
	p.decode()
	return p.xwords
}

func (p *Program) decode() {
	p.xwOnce.Do(func() {
		p.xwords = make([][]exec.Op, len(p.Words))
		p.reads = make([][]ic.Reg, len(p.Words))
		var buf [4]ic.Reg
		for wi, w := range p.Words {
			xw := make([]exec.Op, len(w))
			var rs []ic.Reg
			for i := range w {
				xw[i] = exec.Decode1(&w[i].Inst, w[i].PC)
				for _, r := range w[i].Inst.Uses(buf[:0]) {
					if !slices.Contains(rs, r) {
						rs = append(rs, r)
					}
				}
			}
			p.xwords[wi] = xw
			p.reads[wi] = rs
		}
	})
}

// MaxReg returns the highest register number named anywhere in the
// scheduled code, computed once and cached so repeated simulations of a
// pooled program do not rescan every word. Words must not be mutated after
// the first call.
func (p *Program) MaxReg() ic.Reg {
	p.maxRegOnce.Do(func() {
		var buf [4]ic.Reg
		for _, w := range p.Words {
			for i := range w {
				in := &w[i].Inst
				if d := in.Def(); d > p.maxReg {
					p.maxReg = d
				}
				for _, u := range in.Uses(buf[:0]) {
					if u > p.maxReg {
						p.maxReg = u
					}
				}
			}
		}
	})
	return p.maxReg
}

// OpCount returns the number of static operations (excluding empty slots).
func (p *Program) OpCount() int {
	n := 0
	for _, w := range p.Words {
		n += len(w)
	}
	return n
}

// Listing disassembles the scheduled code, one word per line.
func (p *Program) Listing() string {
	var b strings.Builder
	bounds := map[int]bool{}
	for _, t := range p.TraceBounds {
		bounds[t] = true
	}
	for i, w := range p.Words {
		if bounds[i] {
			fmt.Fprintf(&b, "; --- trace ---\n")
		}
		fmt.Fprintf(&b, "%5d:", i)
		if len(w) == 0 {
			b.WriteString("  nop")
		}
		for _, op := range w {
			fmt.Fprintf(&b, "  [%s]", strings.TrimRight(op.Inst.String(), " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks structural invariants of the linked program.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Words) {
		return fmt.Errorf("vliw: entry word %d out of range", p.Entry)
	}
	mem, alu, move, ctrl, sys := p.Config.Slots()
	for i, w := range p.Words {
		var nm, na, nv, nc, ns int
		for _, op := range w {
			switch op.Inst.Class() {
			case ic.ClassMemory:
				nm++
			case ic.ClassALU:
				na++
			case ic.ClassMove:
				nv++
			case ic.ClassControl:
				nc++
			case ic.ClassSys:
				ns++
			}
			switch op.Inst.Op {
			case ic.BrTag, ic.BrCmp, ic.Jmp, ic.Jsr:
				if op.Inst.Target < 0 || op.Inst.Target >= len(p.Words) {
					return fmt.Errorf("vliw: word %d branches to invalid word %d", i, op.Inst.Target)
				}
			}
		}
		if nm > mem || na > alu || nv > move || nc > ctrl || ns > sys {
			return fmt.Errorf("vliw: word %d oversubscribes resources (mem %d alu %d move %d ctrl %d sys %d)",
				i, nm, na, nv, nc, ns)
		}
		if p.Config.SplitFormats && (na+nv > 0) && (nc+ns > 0) {
			return fmt.Errorf("vliw: word %d mixes ALU and control formats", i)
		}
	}
	return nil
}
