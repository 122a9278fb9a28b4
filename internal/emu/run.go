package emu

import (
	"fmt"

	"symbol/internal/exec"
	"symbol/internal/fault"
	"symbol/internal/word"
)

// This file holds the predecoded run loop. It interprets an exec.Stream
// (plain or fused) instead of raw ic.Inst, so the per-operation work is one
// dense-opcode dispatch with operand forms resolved at predecode time:
//
//   - no pc bounds test (invalid control flow lands on the stream's XBadPC
//     trap op);
//   - no HasImm/Cond/Sys/Region selector tests (each form is its own
//     opcode, and RegionUnknown stores carry an unreachable limit);
//   - no per-step Profile/Events tests (both select the legacy reference
//     interpreter, which carries every kind of instrumentation);
//   - one test per step for both the step budget and the deadline and
//     cancellation poll: a fuel countdown that runs out at MaxSteps or at
//     the next multiple of fault.CheckInterval steps, whichever comes
//     first. refuel, off the hot path, faults at the budget and otherwise
//     polls, so the loop polls at the steps the legacy loop polls at, plus
//     once on entry (so a pre-expired deadline or pre-cancelled run still
//     aborts at step 0, which the differential fault tests rely on).
//     Cancellation latency is bounded by CheckInterval steps, inside a
//     long dereference chase too.
//
// Superinstructions execute their constituents in original order and take
// fuel per constituent, so Result.Steps, the StepLimit fault point and the
// fault pcs are identical to the legacy interpreter's, in original-ICI
// units. The one documented divergence: a computed jump (JmpR) into the
// interior of a superinstruction reports "pc out of range" instead of
// executing from mid-op — no code path in the runtime model materializes
// such an address (every indirect target is a marked jump target, which
// fusion never buries).

func (m *Machine) loadErr(addr uint64) error {
	e := m.fail(fmt.Sprintf("load out of range: %#x", addr))
	e.Err = fault.ErrInvalidMemory
	return e
}

func (m *Machine) storeErr(addr uint64) error {
	e := m.fail(fmt.Sprintf("store out of range: %#x", addr))
	e.Err = fault.ErrInvalidMemory
	return e
}

// pollCheck is the deadline/cancellation poll, hoisted out of the per-step
// path; pc is the original pc reported if the run must abort.
func (m *Machine) pollCheck(pc int) error {
	if k := m.rt.Poll(); k != fault.None {
		m.pc = pc
		return m.faultErr(k)
	}
	return nil
}

// fill starts a fuel countdown after m.fuelEnd steps: it moves fuelEnd to
// the next multiple of fault.CheckInterval, or to MaxSteps if that comes
// first, and returns the steps until then.
func (m *Machine) fill() int64 {
	steps := m.fuelEnd
	m.fuelEnd = max(steps, min(m.opts.MaxSteps, steps&^(fault.CheckInterval-1)+fault.CheckInterval))
	return m.fuelEnd - steps
}

// refuel runs when runFast's fuel is out before the step at pc: at the
// step limit it faults, otherwise it polls and refills.
func (m *Machine) refuel(pc int32) (int64, error) {
	if m.fuelEnd >= m.opts.MaxSteps {
		m.pc = int(pc)
		return 0, m.faultErr(fault.StepLimit)
	}
	if err := m.pollCheck(int(pc)); err != nil {
		return 0, err
	}
	return m.fill(), nil
}

// runFast is the unprofiled predecoded interpreter loop. x0 is the stream
// index to enter at: s.Entry for a fresh run, s.Fail to resume a suspended
// machine by backtracking.
func (m *Machine) runFast(s *exec.Stream, x0 int) (*Result, error) {
	if err := m.pollCheck(int(s.Ops[x0].PC)); err != nil {
		return nil, err
	}
	ops := s.Ops
	mem := m.rt.Mem
	regs := m.regs
	// disp is the whole per-run instrumentation cost when tracing is off:
	// one bounds-check-free increment per dispatch (the array is 256 wide
	// and the opcode is a uint8). Classes, choice points and trail undos
	// are all expanded from it after the run (see exec.Runtime.MixStats).
	disp := &m.ctr.mix.Disp
	// fuel is the steps left before refuel must run; m.fuelEnd - fuel steps
	// are done.
	m.fuelEnd = m.stepsDone
	fuel := m.fill()
	var err error
	x := x0
	for {
		op := &ops[x]
		if fuel == 0 {
			if fuel, err = m.refuel(op.PC); err != nil {
				return nil, err
			}
		}
		fuel--
		disp[op.Code]++
		next := x + 1
		switch op.Code {
		case exec.XNop:
		case exec.XLd, exec.XLdUndo:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.loadErr(addr)
			}
			regs[op.D] = mem[addr]
		case exec.XSt:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= m.rt.Limit[op.Region] {
				m.pc = int(op.PC)
				jump, err := m.raise(op.Region.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					next = int(s.Throw)
					break
				}
			}
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.storeErr(addr)
			}
			mem[addr] = regs[op.B]
			m.rt.St.Touch(addr)

		case exec.XAddR:
			a := regs[op.A]
			regs[op.D] = word.Make(a.Tag(), uint64(a.Int()+regs[op.B].Int()))
		case exec.XAddI:
			a := regs[op.A]
			regs[op.D] = word.Make(a.Tag(), uint64(a.Int()+op.Imm))
		case exec.XSubR:
			a := regs[op.A]
			regs[op.D] = word.Make(a.Tag(), uint64(a.Int()-regs[op.B].Int()))
		case exec.XSubI:
			a := regs[op.A]
			regs[op.D] = word.Make(a.Tag(), uint64(a.Int()-op.Imm))
		case exec.XMulR:
			a := regs[op.A]
			regs[op.D] = word.Make(a.Tag(), uint64(a.Int()*regs[op.B].Int()))
		case exec.XMulI:
			a := regs[op.A]
			regs[op.D] = word.Make(a.Tag(), uint64(a.Int()*op.Imm))
		case exec.XDivR, exec.XDivI, exec.XModR, exec.XModI, exec.XAndR, exec.XAndI,
			exec.XOrR, exec.XOrI, exec.XXorR, exec.XXorI, exec.XShlR, exec.XShlI,
			exec.XShrR, exec.XShrI:
			// The cold ALU opcodes (under 0.1% of corpus dispatches) take
			// the shared definition; Add, Sub and Mul stay inline above.
			aop, reg := op.Code.ALUOp()
			b := op.Imm
			if reg {
				b = regs[op.B].Int()
			}
			v, ok := exec.ALU(aop, regs[op.A], b)
			if !ok {
				m.pc = int(op.PC)
				return nil, m.faultErr(fault.ZeroDivide)
			}
			regs[op.D] = v

		case exec.XMkTag:
			regs[op.D] = regs[op.A].WithTag(op.Tag)
		case exec.XGetTag:
			regs[op.D] = word.MakeInt(int64(regs[op.A].Tag()))
		case exec.XLea:
			regs[op.D] = word.Make(op.Tag, uint64(regs[op.A].Int()+op.Imm))
		case exec.XMov, exec.XMovCP:
			regs[op.D] = regs[op.A]
		case exec.XMovI:
			regs[op.D] = op.W

		case exec.XBrTagEq:
			if regs[op.A].Tag() == op.Tag {
				next = int(op.Target)
			}
		case exec.XBrTagNe:
			if regs[op.A].Tag() != op.Tag {
				next = int(op.Target)
			}
		case exec.XBrCmpEqR:
			if regs[op.A] == regs[op.B] {
				next = int(op.Target)
			}
		case exec.XBrCmpNeR:
			if regs[op.A] != regs[op.B] {
				next = int(op.Target)
			}
		case exec.XBrCmpEqI:
			if regs[op.A] == op.W {
				next = int(op.Target)
			}
		case exec.XBrCmpNeI:
			if regs[op.A] != op.W {
				next = int(op.Target)
			}
		case exec.XBrCmpOrdR:
			if exec.OrdCmp(regs[op.A].Int(), regs[op.B].Int(), op.Cond) {
				next = int(op.Target)
			}
		case exec.XBrCmpOrdI:
			if exec.OrdCmp(regs[op.A].Int(), op.Imm, op.Cond) {
				next = int(op.Target)
			}

		case exec.XJmp:
			next = int(op.Target)
		case exec.XJmpR:
			t := int(regs[op.A].Val())
			if t < 0 || t >= len(s.XOf) || s.XOf[t] < 0 {
				m.pc = t
				return nil, m.fail("pc out of range")
			}
			next = int(s.XOf[t])
		case exec.XJsr:
			regs[op.D] = word.Make(word.Code, uint64(op.PC+1))
			next = int(op.Target)
		case exec.XHalt:
			if op.Imm == 2 {
				m.pc = int(op.PC)
				return nil, m.uncaught()
			}
			steps := m.fuelEnd - fuel
			m.stepsDone = steps
			return &Result{Status: int(op.Imm), Output: m.rt.Out.String(), Steps: steps,
				Stats: m.stats(steps)}, nil

		case exec.XSysWrite:
			m.pc = int(op.PC)
			if err := m.rt.Write(regs[op.A]); err != nil {
				return nil, err
			}
		case exec.XSysNl:
			m.rt.Nl()
		case exec.XSysWriteCode:
			m.rt.WriteCode(regs[op.A])
		case exec.XSysCompare:
			m.pc = int(op.PC)
			if err := m.sysCompare(op.A, op.B); err != nil {
				return nil, err
			}
		case exec.XSysBallPut:
			m.pc = int(op.PC)
			if err := m.sysBallPut(op.A); err != nil {
				return nil, err
			}
		case exec.XSysFault:
			m.pc = int(op.PC)
			jump, err := m.raise(fault.Kind(op.Imm))
			if err != nil {
				return nil, err
			}
			if jump {
				next = int(s.Throw)
			}
		case exec.XSysBad:
			m.pc = int(op.PC)
			return nil, m.fail("unknown sys op")

		// Superinstructions: constituents execute in original order with
		// per-constituent fuel, so Steps and the StepLimit fault point
		// match the legacy interpreter exactly.
		case exec.XFMovDeref:
			regs[op.D] = regs[op.A]
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			fallthrough
		case exec.XFDeref:
			// The head's tag test has had its fuel. Each turn of the chase
			// takes fuel for the load, the self-reference test, the advance,
			// the back edge and the next tag test.
			h := op.PC + int32(op.Width) - 5
			for d := regs[op.D]; d.Tag() == op.Tag; {
				if fuel == 0 {
					if fuel, err = m.refuel(h + 1); err != nil {
						return nil, err
					}
				}
				fuel--
				addr := d.Val() + uint64(op.Imm)
				if addr >= uint64(len(mem)) {
					m.pc = int(h) + 1
					return nil, m.loadErr(addr)
				}
				t := mem[addr]
				regs[op.D2] = t
				m.ctr.mix.DerefLoads++
				if fuel == 0 {
					if fuel, err = m.refuel(h + 2); err != nil {
						return nil, err
					}
				}
				fuel--
				if t == d {
					break
				}
				if fuel == 0 {
					if fuel, err = m.refuel(h + 3); err != nil {
						return nil, err
					}
				}
				fuel--
				regs[op.D] = t
				d = t
				m.ctr.mix.DerefChases++
				if fuel == 0 {
					if fuel, err = m.refuel(h + 4); err != nil {
						return nil, err
					}
				}
				fuel--
				if fuel == 0 {
					if fuel, err = m.refuel(h); err != nil {
						return nil, err
					}
				}
				fuel--
			}
		case exec.XFStAdd:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= m.rt.Limit[op.Region] {
				m.pc = int(op.PC)
				jump, err := m.raise(op.Region.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					// The store faulted: unwind now, the bump never runs.
					m.ctr.mix.SkipStAdd++
					next = int(s.Throw)
					break
				}
			}
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.storeErr(addr)
			}
			mem[addr] = regs[op.B]
			m.rt.St.Touch(addr)
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			d := regs[op.D2]
			regs[op.D2] = word.Make(d.Tag(), uint64(d.Int()+op.Imm2))
		case exec.XFMovJmp:
			regs[op.D] = regs[op.A]
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			next = int(op.Target)
		case exec.XFCMovR:
			// Branch taken skips the move and consumes one step; not taken
			// executes the move as the second constituent.
			if !exec.CmpW(regs[op.A], regs[op.B], op.Cond) {
				if fuel == 0 {
					if fuel, err = m.refuel(op.PC + 1); err != nil {
						return nil, err
					}
				}
				fuel--
				m.ctr.mix.CMovMoves++
				regs[op.D2] = regs[op.A2]
			}
		case exec.XFLdLd:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.loadErr(addr)
			}
			regs[op.D] = mem[addr]
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			addr = regs[op.A2].Val() + uint64(op.Imm2)
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC) + 1
				return nil, m.loadErr(addr)
			}
			regs[op.D2] = mem[addr]
		case exec.XFLdMov:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.loadErr(addr)
			}
			regs[op.D] = mem[addr]
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			regs[op.D2] = regs[op.A2]
		case exec.XFStSt:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= m.rt.Limit[op.Region] {
				m.pc = int(op.PC)
				jump, err := m.raise(op.Region.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					m.ctr.mix.SkipStSt++
					next = int(s.Throw)
					break
				}
			}
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.storeErr(addr)
			}
			mem[addr] = regs[op.B]
			m.rt.St.Touch(addr)
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			addr = regs[op.A2].Val() + uint64(op.Imm2)
			if addr >= m.rt.Limit[op.Region2] {
				m.pc = int(op.PC) + 1
				jump, err := m.raise(op.Region2.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					next = int(s.Throw)
					break
				}
			}
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC) + 1
				return nil, m.storeErr(addr)
			}
			mem[addr] = regs[op.D2]
			m.rt.St.Touch(addr)
		case exec.XFStMovI:
			addr := regs[op.A].Val() + uint64(op.Imm)
			if addr >= m.rt.Limit[op.Region] {
				m.pc = int(op.PC)
				jump, err := m.raise(op.Region.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					m.ctr.mix.SkipStMovI++
					next = int(s.Throw)
					break
				}
			}
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC)
				return nil, m.storeErr(addr)
			}
			mem[addr] = regs[op.B]
			m.rt.St.Touch(addr)
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			regs[op.D2] = op.W
		case exec.XFMovISt:
			regs[op.D] = op.W
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			addr := regs[op.A2].Val() + uint64(op.Imm2)
			if addr >= m.rt.Limit[op.Region2] {
				m.pc = int(op.PC) + 1
				jump, err := m.raise(op.Region2.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					next = int(s.Throw)
					break
				}
			}
			if addr >= uint64(len(mem)) {
				m.pc = int(op.PC) + 1
				return nil, m.storeErr(addr)
			}
			mem[addr] = regs[op.D2]
			m.rt.St.Touch(addr)
		case exec.XFMovMov:
			regs[op.D] = regs[op.A]
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			regs[op.D2] = regs[op.A2]
		case exec.XFMovBrTagEq:
			regs[op.D] = regs[op.A]
			if fuel == 0 {
				if fuel, err = m.refuel(op.PC + 1); err != nil {
					return nil, err
				}
			}
			fuel--
			if regs[op.D2].Tag() == op.Tag {
				next = int(op.Target)
			}
		case exec.XBadPC:
			m.pc = int(op.Imm)
			return nil, m.fail("pc out of range")
		default: // exec.XUnknown
			m.pc = int(op.PC)
			return nil, m.fail("unknown opcode")
		}
		x = next
	}
}
