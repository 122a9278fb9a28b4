// Package emu implements the IntCode Sequential Emulator of the SYMBOL
// evaluation system (paper §3.1, Figure 1). It executes an IC program
// against the simulated tagged memory, validates the code, and extracts the
// statistical information that drives the parallelizing back end: the
// Expect of every instruction (how many times it executed) and the
// Probability of every branch (how often it was taken).
package emu

import (
	"fmt"
	"runtime"
	"time"

	"symbol/internal/exec"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/obs"
	"symbol/internal/word"
)

// Profile is the per-instruction statistics gathered during emulation.
type Profile struct {
	// Expect[pc] is the number of times Code[pc] executed.
	Expect []int64
	// Taken[pc] is the number of times the conditional branch at pc was
	// taken (meaningful only for BrTag/BrCmp).
	Taken []int64
}

// Probability returns the branch-taken probability of the conditional
// branch at pc, and false if it never executed.
func (p *Profile) Probability(pc int) (float64, bool) {
	if p.Expect[pc] == 0 {
		return 0, false
	}
	return float64(p.Taken[pc]) / float64(p.Expect[pc]), true
}

// Result summarizes one emulation segment: the stretch of execution from
// Run or Resume up to the next Halt. Status 0 means a solution was reached
// (the machine is suspended and Resume will backtrack into the next one);
// status 1 means the choice-point stack is exhausted.
type Result struct {
	Status  int    // 0: success (solution), 1: fail (no more solutions)
	Output  string // text produced by write/1 and nl/0 during this segment
	Steps   int64  // dynamic ICI count, cumulative across resumed segments
	Profile *Profile
	// Stats is the observability record (op-class mix, memory high-water
	// marks, choice-point/trail activity, faults, wall time), populated on
	// every completed segment in every interpreter mode. All fields are
	// cumulative across resumed segments; Wall counts only time spent
	// executing, not time suspended between solutions.
	Stats obs.Stats
}

// Error is a runtime error with machine context. Err, when non-nil, is the
// underlying typed fault sentinel, so errors.Is(err, fault.ErrHeapOverflow)
// and friends see through the machine context.
type Error struct {
	PC     int
	Inst   string
	Reason string
	Err    error
}

func (e *Error) Error() string {
	return fmt.Sprintf("emu: pc=%d [%s]: %s", e.PC, e.Inst, e.Reason)
}

// Unwrap exposes the typed fault underneath the machine context.
func (e *Error) Unwrap() error { return e.Err }

// ErrStepLimit is reported (wrapped in *Error) when MaxSteps is exhausted.
var ErrStepLimit = fault.ErrStepLimit

// Options configure emulation.
type Options struct {
	MaxSteps int64 // abort after this many ICIs (default 4e9)
	// Profile collects Expect/Taken. It implies the legacy reference
	// interpreter, so the predecoded loop carries no profile counters.
	Profile bool
	// Layout shrinks the usable size of the memory areas below the
	// compile-time defaults; overflow of a shrunken area raises the
	// corresponding typed fault (catchable as resource_error(Area)).
	Layout ic.Layout
	// Deadline, when non-zero, aborts the run with fault.ErrDeadline once
	// the wall clock passes it (checked every fault.CheckInterval steps).
	Deadline time.Time
	// Interrupt, when non-nil, aborts the run with fault.ErrCanceled once
	// it is closed (polled at the deadline cadence). It lets an embedding
	// caller propagate context cancellation into a running query.
	Interrupt <-chan struct{}
	// State, when non-nil, is the caller-provided machine state to run in
	// (memory image + register file). The machine assumes it is all zero —
	// fresh from ic.NewState or restored by State.Reset — and marks every
	// memory write in its dirty set. Recycling one State across runs avoids
	// remapping the multi-megaword memory image per query. Nil means make a
	// private state: Run frees it before it returns, while a Machine from
	// New keeps it until the Machine is collected.
	State *ic.State
	// NoFuse runs on the plain predecoded stream, one internal op per ICI,
	// with superinstruction fusion disabled. Observable behaviour is
	// identical either way (that is differentially tested); the flag exists
	// for benchmarking and for pinning down a miscompare.
	NoFuse bool
	// Legacy forces the original non-predecoded reference interpreter, the
	// semantic baseline the predecoded loop is verified against (implied by
	// Events and Profile). Kept for differential tests and baseline
	// benchmarks.
	Legacy bool
	// Events, if non-nil, receives executor milestone events (call/fail
	// ports, choice-point push/pop, catch/throw, faults, halt). Like Profile
	// it implies the legacy reference interpreter, so the predecoded loop
	// carries no event hooks and pays nothing when tracing is off. On an
	// error return the trace still holds the events up to the fault.
	Events *obs.Trace
}

// Machine is the sequential IC interpreter.
type Machine struct {
	// rt holds the memory image, output, region limits, fault state and
	// poll targets, and the runtime rules the VLIW simulator runs too. It
	// is held by value, so the run loops reach its fields at fixed offsets,
	// and as a named field, so its methods stay off Machine's method set.
	rt   exec.Runtime
	prog *ic.Program
	opts Options
	regs []word.W
	pc   int
	prof *Profile

	// Observability state. ctr is written by the run loops (the fast loop
	// only touches the dispatch mix; the legacy loop fills cls and the mark
	// counters instead); start stamps segment entry for wall time.
	ctr     counters
	start   time.Time
	events  *obs.Trace
	evStep  int64        // step counter mirror for events emitted inside raise
	catchPC int          // pc of the $catchh handler entry, -1 when absent
	procPC  map[int]bool // procedure entry pcs, built only when tracing events

	// Suspend/resume continuation. A Halt 0 leaves the whole machine state
	// (choice-point stack, trail, heap, dirty-page set) intact, so "the
	// continuation" is just: re-enter the interpreter at the shared $fail
	// routine, which pops the top choice point and backtracks into the next
	// untried alternative. stepsDone carries the cumulative step count into
	// the next segment (the MaxSteps budget spans resumes); wallAcc
	// accumulates active execution time across segments so suspension time
	// is never billed.
	phase      uint8
	legacyMode bool // which loop family ran (selects the Stats expansion)
	running    bool // inside a segment right now (selects the Wall formula)
	stepsDone  int64
	wallAcc    time.Duration
	fuelEnd    int64 // runFast: the step count its fuel countdown runs out at
}

// Machine run phases.
const (
	phaseReady     uint8 = iota // never run
	phaseSuspended              // halted at a solution; Resume continues
	phaseDone                   // terminal: exhausted, errored, or no $fail routine
)

// counters is the cheap per-run instrumentation the loops write.
type counters struct {
	mix exec.Mix // per-XCode dispatch counts and fusion fixups (predecoded loop)
	// Legacy-loop equivalents: per-class counts and mark counts, gathered
	// per step since the legacy loop has no dense opcodes.
	cls               [int(ic.NumClasses)]int64
	cpPush, trailUndo int64
}

// New prepares a machine for prog. When opts.State is set the machine runs
// in that (zeroed) state; otherwise it allocates a private one.
func New(prog *ic.Program, opts Options) *Machine {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 4e9
	}
	st := opts.State
	if st == nil {
		st = ic.NewState()
	}
	m := &Machine{
		prog:    prog,
		opts:    opts,
		regs:    st.Regs(int(prog.MaxReg()) + 1),
		pc:      prog.Entry,
		events:  opts.Events,
		catchPC: -1,
	}
	m.rt.Init(prog, st, opts.Layout, prog.ThrowPC > 0)
	m.rt.Deadline, m.rt.Interrupt = opts.Deadline, opts.Interrupt
	if pc, ok := prog.Procs["$catchh"]; ok {
		m.catchPC = pc
	}
	if m.events != nil {
		m.procPC = make(map[int]bool, len(prog.Procs))
		for _, pc := range prog.Procs {
			m.procPC[pc] = true
		}
	}
	if opts.Profile {
		m.prof = &Profile{
			Expect: make([]int64, len(prog.Code)),
			Taken:  make([]int64, len(prog.Code)),
		}
	}
	return m
}

// Run executes the program to completion.
func Run(prog *ic.Program, opts Options) (*Result, error) {
	m := New(prog, opts)
	if opts.State == nil {
		defer m.rt.St.Free()
	}
	return m.Run()
}

func (m *Machine) fail(reason string) *Error {
	s := "?"
	if m.pc >= 0 && m.pc < len(m.prog.Code) {
		s = m.prog.Code[m.pc].String()
	}
	return &Error{PC: m.pc, Inst: s, Reason: reason}
}

// faultErr builds a typed machine fault at the current pc.
func (m *Machine) faultErr(k fault.Kind) error {
	e := m.fail(k.String())
	e.Err = fault.Of(k)
	return e
}

// raise handles a machine fault of kind k: catchable kinds are converted
// into a ball and delivered to the $throwunwind routine (redirect true);
// everything else surfaces as a typed hard error.
func (m *Machine) raise(k fault.Kind) (redirect bool, err error) {
	if m.events != nil {
		m.events.Add(obs.Event{Step: m.evStep, PC: int32(m.pc), Kind: obs.EvFault, Arg: int64(k)})
	}
	if m.rt.Raise(k) {
		return true, nil
	}
	return false, m.faultErr(k)
}

// uncaught reports a ball that unwound past the whole choice-point stack
// (the $throwunwind Halt 2 path).
func (m *Machine) uncaught() error {
	k, reason := m.rt.Uncaught()
	e := m.fail(reason)
	e.Err = fault.Of(k)
	return e
}

// Run interprets until Halt, an error, or the step limit. The hot path runs
// over the program's predecoded stream (internal/exec), fused unless
// opts.NoFuse; profiling, tracing, events (or opts.Legacy) select the
// original reference interpreter, which executes ic.Inst directly. When the
// result has Status 0 the machine is left suspended at the solution: Resume
// backtracks into the next alternative.
func (m *Machine) Run() (*Result, error) {
	if m.phase != phaseReady {
		return nil, fmt.Errorf("emu: Run on a machine that already ran (use Resume)")
	}
	return m.segment(false)
}

// Resume re-enters a machine suspended at a solution (More reports true)
// and backtracks for the next one. The segment ends at the next Halt:
// Status 0 with the next solution (suspended again), or Status 1 when the
// choice-point stack is exhausted. Output is reset per segment, so each
// result carries only its own solution's text; Steps, Stats and the
// MaxSteps budget are cumulative across segments. Errors (faults, budget
// exhaustion, cancellation) are terminal: the machine cannot be resumed
// after one.
func (m *Machine) Resume() (*Result, error) {
	if m.phase != phaseSuspended {
		return nil, fmt.Errorf("emu: Resume on a machine that is not suspended")
	}
	m.rt.Out.Reset()
	return m.segment(true)
}

// More reports whether the machine is suspended at a solution, i.e. Resume
// can backtrack into the next alternative.
func (m *Machine) More() bool { return m.phase == phaseSuspended }

// SetDeadline replaces the abort deadline for subsequent segments (zero
// clears it). Only legal between segments, never while Run/Resume executes.
func (m *Machine) SetDeadline(t time.Time) { m.rt.Deadline = t }

// SetInterrupt replaces the cancellation channel for subsequent segments
// (nil clears it). Only legal between segments.
func (m *Machine) SetInterrupt(ch <-chan struct{}) { m.rt.Interrupt = ch }

// Stats snapshots the cumulative observability record covering every
// segment so far. Only legal between segments; it lets an embedder that
// abandons a suspended machine settle its accounting without running to
// exhaustion.
func (m *Machine) Stats() obs.Stats { return m.stats(m.stepsDone) }

// Elapsed is the cumulative active execution time across segments,
// excluding time spent suspended.
func (m *Machine) Elapsed() time.Duration { return m.wallNow() }

// segment runs one Run/Resume stretch to its Halt (or error). Resuming
// means entering at the $fail routine instead of the program entry: $fail
// restores the top choice-point frame and dispatches its retry address, or
// executes Halt 1 when the stack is empty. FailPC is a static branch
// target, so the fusion pass never buries it and the stream lookup is
// always exact.
func (m *Machine) segment(resume bool) (*Result, error) {
	m.start = time.Now()
	m.running = true
	m.phase = phaseDone // provisional; a Halt 0 below re-suspends
	var (
		res *Result
		err error
	)
	if m.opts.Legacy || m.events != nil || m.prof != nil {
		m.legacyMode = true
		if resume {
			// The predecoded loop polls on entry every segment; mirror that
			// here so a deadline that expired while suspended aborts a
			// legacy-mode resume at step 0 too.
			m.pc = m.prog.FailPC
			err = m.pollCheck(m.pc)
		}
		if err == nil {
			res, err = m.runLegacy()
		}
	} else {
		xp := exec.Of(m.prog)
		s := &xp.Fused
		if m.opts.NoFuse {
			s = xp.Plain()
		}
		x := int(s.Entry)
		if resume {
			x = int(s.Fail)
		}
		res, err = m.runFast(s, x)
	}
	// The loops work on m.rt.Mem, a slice of the state's image: keep the
	// state (and so its mapping) alive until they are done with it.
	runtime.KeepAlive(m.rt.St)
	m.wallAcc += time.Since(m.start)
	m.running = false
	if err == nil && res.Status == 0 && m.prog.FailPC > 0 {
		m.phase = phaseSuspended
	}
	return res, err
}

// wallNow is the cumulative active wall time: time actually spent inside
// run segments, excluding any time the machine sat suspended between
// solutions.
func (m *Machine) wallNow() time.Duration {
	if m.running {
		return m.wallAcc + time.Since(m.start)
	}
	return m.wallAcc
}

// stats is the per-run record after steps steps, expanded from whichever
// counters the loop that ran keeps.
func (m *Machine) stats(steps int64) obs.Stats {
	if m.legacyMode {
		return m.rt.ClassStats(steps, &m.ctr.cls, m.ctr.cpPush, m.ctr.trailUndo, m.wallNow())
	}
	return m.rt.MixStats(steps, &m.ctr.mix, m.wallNow())
}

// runLegacy is the original one-ICI-at-a-time interpreter. It is the
// semantic reference for the predecoded loop in run.go and the only loop
// that supports Profile and Events.
func (m *Machine) runLegacy() (*Result, error) {
	code := m.prog.Code
	mem := m.rt.Mem
	steps := m.stepsDone
	for {
		if m.pc < 0 || m.pc >= len(code) {
			return nil, m.fail("pc out of range")
		}
		if steps >= m.opts.MaxSteps {
			return nil, m.faultErr(fault.StepLimit)
		}
		if steps&(fault.CheckInterval-1) == 0 {
			if err := m.pollCheck(m.pc); err != nil {
				return nil, err
			}
		}
		steps++
		in := &code[m.pc]
		m.ctr.cls[in.Class()]++
		switch in.Mark {
		case ic.MarkCPPush:
			m.ctr.cpPush++
		case ic.MarkTrailUndo:
			m.ctr.trailUndo++
		}
		if m.events != nil {
			m.evStep = steps
		}
		if m.prof != nil {
			m.prof.Expect[m.pc]++
		}
		next := m.pc + 1
		switch in.Op {
		case ic.Nop:
		case ic.Ld:
			addr := m.regs[in.A].Val() + uint64(in.Imm)
			if addr >= uint64(len(mem)) {
				return nil, m.loadErr(addr)
			}
			m.regs[in.D] = mem[addr]
		case ic.St:
			addr := m.regs[in.A].Val() + uint64(in.Imm)
			if r := in.Reg; r != ic.RegionUnknown && addr >= m.rt.Limit[r] {
				jump, err := m.raise(r.Overflow())
				if err != nil {
					return nil, err
				}
				if jump {
					next = m.prog.ThrowPC
					break
				}
			}
			if addr >= uint64(len(mem)) {
				return nil, m.storeErr(addr)
			}
			mem[addr] = m.regs[in.B]
			m.rt.St.Touch(addr)
		case ic.Add, ic.Sub, ic.Mul, ic.Div, ic.Mod, ic.And, ic.Or, ic.Xor, ic.Shl, ic.Shr:
			b := in.Imm
			if !in.HasImm {
				b = m.regs[in.B].Int()
			}
			r, ok := exec.ALU(in.Op, m.regs[in.A], b)
			if !ok {
				return nil, m.faultErr(fault.ZeroDivide)
			}
			m.regs[in.D] = r
		case ic.MkTag:
			m.regs[in.D] = m.regs[in.A].WithTag(in.Tag)
		case ic.Lea:
			m.regs[in.D] = word.Make(in.Tag, uint64(m.regs[in.A].Int()+in.Imm))
		case ic.GetTag:
			m.regs[in.D] = word.MakeInt(int64(m.regs[in.A].Tag()))
		case ic.Mov:
			m.regs[in.D] = m.regs[in.A]
		case ic.MovI:
			m.regs[in.D] = in.Word
		case ic.BrTag, ic.BrCmp:
			if exec.Taken(in, m.regs) {
				next = in.Target
				if m.prof != nil {
					m.prof.Taken[m.pc]++
				}
			}
		case ic.Jmp:
			next = in.Target
		case ic.JmpR:
			next = int(m.regs[in.A].Val())
		case ic.Jsr:
			m.regs[in.D] = word.Make(word.Code, uint64(m.pc+1))
			next = in.Target
		case ic.Halt:
			if in.Imm == 2 {
				return nil, m.uncaught()
			}
			if m.events != nil {
				m.events.Add(obs.Event{Step: steps, PC: int32(m.pc), Kind: obs.EvHalt, Arg: in.Imm})
			}
			m.stepsDone = steps
			res := &Result{
				Status:  int(in.Imm),
				Output:  m.rt.Out.String(),
				Steps:   steps,
				Profile: m.prof,
				Stats:   m.stats(steps),
			}
			return res, nil
		case ic.SysOp:
			if in.Sys == ic.SysFault {
				jump, err := m.raise(fault.Kind(in.Imm))
				if err != nil {
					return nil, err
				}
				if jump {
					next = m.prog.ThrowPC
				}
			} else if err := m.sys(in); err != nil {
				return nil, err
			}
		default:
			return nil, m.fail("unknown opcode")
		}
		if m.events != nil {
			m.emitEvents(steps, in, next)
		}
		m.pc = next
	}
}

// emitEvents derives milestone events from the instruction that just
// executed at m.pc and the pc control moves to next. Fault events are
// emitted inside raise (they may precede a hard-error return), halts in
// the Halt arm; everything else is recognizable here from the instruction
// shape, its Mark, or the destination pc.
func (m *Machine) emitEvents(steps int64, in *ic.Inst, next int) {
	t := m.events
	pc := int32(m.pc)
	switch in.Mark {
	case ic.MarkCPPush:
		t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvChoicePush, Arg: int64(m.regs[ic.RegB].Val())})
	case ic.MarkCPPop:
		t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvChoicePop, Arg: int64(m.regs[ic.RegB].Val())})
	}
	switch in.Op {
	case ic.Jsr:
		t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvCall, Arg: int64(in.Target)})
	case ic.Jmp:
		if m.procPC[in.Target] && in.Target != m.prog.FailPC {
			t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvExec, Arg: int64(in.Target)})
		}
	case ic.JmpR:
		// Only returns through the continuation register: $fail's retry
		// dispatch and the rethrow paths JmpR through temporaries.
		if in.A == ic.RegCP {
			t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvReturn, Arg: int64(next)})
		}
	case ic.SysOp:
		if in.Sys == ic.SysBallPut {
			t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvThrow})
		}
	}
	if next == m.prog.FailPC {
		t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvFail})
	}
	if next == m.catchPC {
		t.Add(obs.Event{Step: steps, PC: pc, Kind: obs.EvCatch})
	}
}

// The sys builtins run in the shared runtime; the wrappers below are the
// emulator's side of them, used by both loops (the predecoded stream has a
// distinct opcode for each, so the dispatch in sys is the legacy loop's).

func (m *Machine) sysCompare(a, b ic.Reg) error {
	v, err := m.rt.Compare(m.regs[a], m.regs[b])
	if err != nil {
		return err
	}
	m.regs[ic.RegRV] = v
	return nil
}

func (m *Machine) sysBallPut(a ic.Reg) error {
	if err := m.rt.BallPut(m.regs[a]); err != nil {
		return m.fail(err.Error())
	}
	return nil
}

func (m *Machine) sys(in *ic.Inst) error {
	switch in.Sys {
	case ic.SysWrite:
		return m.rt.Write(m.regs[in.A])
	case ic.SysNl:
		m.rt.Nl()
	case ic.SysWriteCode:
		m.rt.WriteCode(m.regs[in.A])
	case ic.SysCompare:
		return m.sysCompare(in.A, in.B)
	case ic.SysBallPut:
		return m.sysBallPut(in.A)
	default:
		return m.fail("unknown sys op")
	}
	return nil
}
