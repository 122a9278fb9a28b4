package vliw

import (
	"fmt"
	"time"

	"symbol/internal/exec"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/obs"
	"symbol/internal/word"
)

// SimResult is the outcome of a simulated run of compacted code.
type SimResult struct {
	Status int    // 0 success, 1 fail
	Output string // write/1 and nl/0 text (must match the sequential run)
	Cycles int64  // machine cycles: one per word plus taken-branch bubbles
	Words  int64  // words issued
	Ops    int64  // operations executed
	Bubble int64  // cycles lost to taken branches
	// Stats is the per-run observability record. Steps counts executed
	// operations (the VLIW analogue of ICIs — compaction may duplicate or
	// speculate ops, so it can differ from the sequential Steps) and Cycles
	// mirrors the cycle count.
	Stats obs.Stats
}

// SimOptions configure simulation.
type SimOptions struct {
	MaxCycles int64 // abort bound (default 6e9)
	// Layout shrinks the usable size of the memory areas below the
	// compile-time defaults, mirroring emu.Options.Layout.
	Layout ic.Layout
	// Deadline, when non-zero, aborts the run with fault.ErrDeadline once
	// the wall clock passes it (checked every fault.CheckInterval cycles,
	// the same cadence as the sequential emulator).
	Deadline time.Time
	// Interrupt, when non-nil, aborts the run with fault.ErrCanceled once
	// it is closed (polled at the deadline cadence), mirroring emu.Options.
	Interrupt <-chan struct{}
	// State, when non-nil, is the caller-provided machine state (memory
	// image, register file, ready cycles) to run in; it must be all zero.
	// Nil means a private state, freed before Sim returns. Mirrors
	// emu.Options.State.
	State *ic.State
	// Events, if non-nil, receives executor milestone events. Unlike the
	// sequential emulator the simulator has no separate reference loop, so
	// the hooks run inline under a nil check; compaction can speculate or
	// duplicate operations, so the VLIW event stream is approximate where
	// the sequential one is exact.
	Events *obs.Trace
}

// SimError is a simulation failure with cycle context. Err, when non-nil,
// is the underlying typed fault sentinel.
type SimError struct {
	WordIdx int
	Cycle   int64
	Reason  string
	Err     error
}

func (e *SimError) Error() string {
	return fmt.Sprintf("vliw: word %d cycle %d: %s", e.WordIdx, e.Cycle, e.Reason)
}

// Unwrap exposes the typed fault underneath the machine context.
func (e *SimError) Unwrap() error { return e.Err }

// ErrCycleLimit is reported (wrapped in *SimError) when MaxCycles is
// exhausted.
var ErrCycleLimit = fault.ErrCycleLimit

type pendingWrite struct {
	reg ic.Reg
	val word.W
	lat int
}

// Sim executes the compacted program cycle by cycle. All operations of a
// word read the register state the word was issued with; results become
// visible after the producer latency (1 cycle for ALU and moves, the
// configured memory latency for loads). The simulator verifies the static
// schedule at run time: reading a register whose producer is still in
// flight is an error, as a real VLIW has no interlocks. Every slot's
// operands are read when the word issues, so the check covers the whole
// word at once, including branches a higher-priority branch overrides and
// operations after a mid-word fault; it is skipped while no register is in
// flight.
//
// The per-op execute step dispatches on the predecoded operation slots
// (Program.XWords): the same dense opcodes as the sequential emulator's
// predecoded loop, with imm-vs-reg variants and sys escapes resolved at
// decode time instead of per issue.
func Sim(p *Program, opts SimOptions) (*SimResult, error) {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 6e9
	}
	st := opts.State
	if st == nil {
		st = ic.NewState()
		defer st.Free()
	}
	nregs := int(p.MaxReg()) + 1
	regs := st.Regs(nregs)
	ready := st.Ready(nregs)
	mem := st.Mem()
	xwords := p.XWords()
	reads := p.reads

	res := &SimResult{}
	start := time.Now()
	events := opts.Events
	// Per-opcode dispatch counts, expanded into the class mix at halt; the
	// VLIW streams carry only plain (unfused) opcodes, so no fixups apply.
	var mix exec.Mix
	disp := &mix.Disp
	var cycle int64
	pcW := p.Entry
	var writes []pendingWrite
	// inFlight is the latest ready cycle written: once the clock reaches
	// it every register is readable and the latency check has nothing to do.
	var inFlight int64

	fail := func(w int, format string, args ...interface{}) *SimError {
		return &SimError{WordIdx: w, Cycle: cycle, Reason: fmt.Sprintf(format, args...)}
	}
	faultErr := func(w int, k fault.Kind) error {
		e := fail(w, "%s", k.String())
		e.Err = fault.Of(k)
		return e
	}

	throwWord := -1
	if p.IC.ThrowPC > 0 {
		if tw, ok := p.WordOf[p.IC.ThrowPC]; ok {
			throwWord = tw
		}
	}
	failWord := -1
	if fw, ok := p.WordOf[p.IC.FailPC]; ok {
		failWord = fw
	}
	var rt exec.Runtime
	rt.Init(p.IC, st, opts.Layout, throwWord >= 0)
	rt.Deadline, rt.Interrupt = opts.Deadline, opts.Interrupt
	// raise converts a catchable fault into a ball delivered to the unwind
	// routine; other kinds (or programs without the routine) abort.
	raise := func(w int, pc int32, k fault.Kind) error {
		if events != nil {
			events.Add(obs.Event{Step: res.Ops, PC: pc, Kind: obs.EvFault, Arg: int64(k)})
		}
		if rt.Raise(k) {
			return nil
		}
		return faultErr(w, k)
	}

	for {
		if cycle >= opts.MaxCycles {
			return nil, faultErr(pcW, fault.CycleLimit)
		}
		if cycle&(fault.CheckInterval-1) == 0 {
			if k := rt.Poll(); k != fault.None {
				return nil, faultErr(pcW, k)
			}
		}
		if pcW < 0 || pcW >= len(p.Words) {
			return nil, fail(pcW, "word index out of range")
		}
		if inFlight > cycle {
			for _, r := range reads[pcW] {
				if ready[r] > cycle {
					return nil, fail(pcW, "latency violation: register %d ready at %d", r, ready[r])
				}
			}
		}
		res.Words++
		writes = writes[:0]
		nextW := pcW + 1
		branched := false
		halted := false
		status := 0
		xw := xwords[pcW]

	ops:
		for oi := range xw {
			op := &xw[oi]
			res.Ops++
			disp[op.Code]++
			switch op.Code {
			case exec.XNop:
			case exec.XLd, exec.XLdUndo:
				addr := regs[op.A].Val() + uint64(op.Imm)
				var v word.W
				if addr < uint64(len(mem)) {
					v = mem[addr]
				}
				// Out-of-range speculative loads are dismissed (return 0),
				// as on machines with non-faulting loads.
				writes = append(writes, pendingWrite{op.D, v, p.Config.MemLatency})
			case exec.XSt:
				addr := regs[op.A].Val() + uint64(op.Imm)
				if addr >= rt.Limit[op.Region] {
					if err := raise(pcW, op.PC, op.Region.Overflow()); err != nil {
						return nil, err
					}
					// Imprecise mid-word fault: the word's pending register
					// writes either follow the store in program order or are
					// speculative, so discarding them (plus the committed
					// store prefix — stores are strictly pc-ordered, one per
					// word) leaves exactly the sequential machine state.
					writes = writes[:0]
					branched = true
					halted = false
					nextW = throwWord
					break ops
				}
				if addr >= uint64(len(mem)) {
					e := fail(pcW, "store out of range: %#x", addr)
					e.Err = fault.ErrInvalidMemory
					return nil, e
				}
				mem[addr] = regs[op.B]
				st.Touch(addr)

			case exec.XAddR, exec.XAddI, exec.XSubR, exec.XSubI, exec.XMulR, exec.XMulI,
				exec.XDivR, exec.XDivI, exec.XModR, exec.XModI, exec.XAndR, exec.XAndI,
				exec.XOrR, exec.XOrI, exec.XXorR, exec.XXorI, exec.XShlR, exec.XShlI,
				exec.XShrR, exec.XShrI:
				aop, reg := op.Code.ALUOp()
				a, b := regs[op.A], op.Imm
				if reg {
					b = regs[op.B].Int()
				}
				v, ok := exec.ALU(aop, a, b)
				if !ok {
					// Division never traps: a speculated divide hoisted
					// above its guard may see a zero divisor, so it
					// dismisses to 0 (like speculative loads). The
					// architectural zero-divide check is compiled code
					// (bam.RaiseFault → SysFault).
					v = word.Make(a.Tag(), 0)
				}
				writes = append(writes, pendingWrite{op.D, v, 1})
			case exec.XMkTag:
				writes = append(writes, pendingWrite{op.D, regs[op.A].WithTag(op.Tag), 1})
			case exec.XLea:
				writes = append(writes, pendingWrite{op.D, word.Make(op.Tag, uint64(regs[op.A].Int()+op.Imm)), 1})
			case exec.XGetTag:
				writes = append(writes, pendingWrite{op.D, word.MakeInt(int64(regs[op.A].Tag())), 1})
			case exec.XMov, exec.XMovCP:
				writes = append(writes, pendingWrite{op.D, regs[op.A], 1})
				if events != nil && op.Code == exec.XMovCP {
					events.Add(obs.Event{Step: res.Ops, PC: op.PC, Kind: obs.EvChoicePush, Arg: int64(regs[op.A].Val())})
				}
			case exec.XMovI:
				writes = append(writes, pendingWrite{op.D, op.W, 1})

			// Branches: the first taken one in slot order wins; later
			// branches in the word are overridden.
			case exec.XBrTagEq:
				if !branched && regs[op.A].Tag() == op.Tag {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrTagNe:
				if !branched && regs[op.A].Tag() != op.Tag {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrCmpEqR:
				if !branched && regs[op.A] == regs[op.B] {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrCmpNeR:
				if !branched && regs[op.A] != regs[op.B] {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrCmpEqI:
				if !branched && regs[op.A] == op.W {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrCmpNeI:
				if !branched && regs[op.A] != op.W {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrCmpOrdR:
				if !branched && exec.OrdCmp(regs[op.A].Int(), regs[op.B].Int(), op.Cond) {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XBrCmpOrdI:
				if !branched && exec.OrdCmp(regs[op.A].Int(), op.Imm, op.Cond) {
					branched = true
					nextW = int(op.Target)
				}

			case exec.XJmp:
				if !branched {
					branched = true
					nextW = int(op.Target)
				}
			case exec.XJmpR:
				if branched {
					continue
				}
				tw, ok := p.WordOf[int(regs[op.A].Val())]
				if !ok {
					return nil, fail(pcW, "indirect jump to unaddressable pc %d", regs[op.A].Val())
				}
				branched = true
				nextW = tw
			case exec.XJsr:
				if branched {
					continue
				}
				writes = append(writes, pendingWrite{op.D, word.Make(word.Code, uint64(op.PC+1)), 1})
				branched = true
				nextW = int(op.Target)
				if events != nil {
					events.Add(obs.Event{Step: res.Ops, PC: op.PC, Kind: obs.EvCall, Arg: int64(op.Target)})
				}
			case exec.XHalt:
				if !branched {
					halted = true
					status = int(op.Imm)
				}

			case exec.XSysWrite:
				if err := rt.Write(regs[op.A]); err != nil {
					return nil, err
				}
			case exec.XSysNl:
				rt.Nl()
			case exec.XSysWriteCode:
				rt.WriteCode(regs[op.A])
			case exec.XSysCompare:
				v, err := rt.Compare(regs[op.A], regs[op.B])
				if err != nil {
					return nil, err
				}
				writes = append(writes, pendingWrite{ic.RegRV, v, 1})
			case exec.XSysBallPut:
				if err := rt.BallPut(regs[op.A]); err != nil {
					return nil, fail(pcW, "%v", err)
				}
				if events != nil {
					events.Add(obs.Event{Step: res.Ops, PC: op.PC, Kind: obs.EvThrow})
				}
			case exec.XSysFault:
				if err := raise(pcW, op.PC, fault.Kind(op.Imm)); err != nil {
					return nil, err
				}
				writes = writes[:0]
				branched = true
				halted = false
				nextW = throwWord
				break ops
			case exec.XSysBad:
				return nil, fail(pcW, "unknown sys op")
			default:
				return nil, fail(pcW, "unknown opcode")
			}
		}

		// End of word: apply writes with their latencies.
		for _, pw := range writes {
			regs[pw.reg] = pw.val
			t := cycle + int64(pw.lat)
			ready[pw.reg] = t
			inFlight = max(inFlight, t)
		}
		cycle++
		if halted {
			if status == 2 {
				// The unwind found no catch frame (the $throwunwind Halt 2
				// path): surface the converted fault or the uncaught ball.
				k, reason := rt.Uncaught()
				e := fail(pcW, "%s", reason)
				e.Err = fault.Of(k)
				return nil, e
			}
			res.Status = status
			res.Output = rt.Out.String()
			res.Cycles = cycle
			if events != nil {
				events.Add(obs.Event{Step: res.Ops, PC: -1, Kind: obs.EvHalt, Arg: int64(status)})
			}
			res.Stats = rt.MixStats(res.Ops, &mix, time.Since(start))
			res.Stats.Cycles = cycle
			return res, nil
		}
		if branched {
			bub := int64(p.Config.BranchBubble)
			cycle += bub
			res.Bubble += bub
		}
		if events != nil && branched && nextW == failWord {
			events.Add(obs.Event{Step: res.Ops, PC: -1, Kind: obs.EvFail})
		}
		pcW = nextW
	}
}
