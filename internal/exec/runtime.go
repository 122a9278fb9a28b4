package exec

import (
	"strings"
	"time"

	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/mterm"
	"symbol/internal/obs"
	"symbol/internal/term"
	"symbol/internal/word"
)

// Runtime is the machine state and the runtime services both executors
// share around the ICI semantics: region limits, the fault-to-ball
// protocol, uncaught-throw reporting, the deadline and cancellation poll,
// the sys builtins and the Stats record. The sequential emulator holds one
// by value in its Machine, so its run loops reach these fields at fixed
// offsets; the VLIW simulator holds one per run. What differs between the executors (latency
// queue, dismissed loads and divides, branch priority, event streams, error
// types) stays with them.
type Runtime struct {
	// Limit bounds each annotated region: a store at addr with region
	// annotation r faults iff addr >= Limit[r], i.e. the region's bump
	// pointer ran past its (possibly shrunken) end. Sound because every
	// region-annotated store is reached through that region's own pointer:
	// variable cells are always heap-allocated (compile.getVal), so bind
	// and trail-unwind targets never alias another region. RegionUnknown
	// has an unreachable limit, so unannotated stores need no separate test.
	Limit [ic.RegionBall + 1]uint64

	St  *ic.State
	Mem []word.W
	Out strings.Builder // text written by the write, nl and writecode builtins

	// pending is the kind of a resource fault that was converted into a
	// catchable ball, so an uncaught unwind reports the original fault
	// rather than a generic uncaught exception.
	pending        fault.Kind
	raised, caught int64 // faults raised, and those converted into balls

	// Deadline (when non-zero) and Interrupt (when non-nil) are what Poll
	// checks.
	Deadline  time.Time
	Interrupt <-chan struct{}

	atoms  *term.Table
	throws bool
}

// Init prepares rt to run p in st under layout l. throws reports whether
// the executor can deliver a ball to the program's $throwunwind routine;
// without it every fault is hard.
func (rt *Runtime) Init(p *ic.Program, st *ic.State, l ic.Layout, throws bool) {
	rt.Limit[ic.RegionUnknown] = ^uint64(0)
	for r := ic.RegionHeap; r <= ic.RegionBall; r++ {
		rt.Limit[r] = l.Limit(r)
	}
	rt.St, rt.Mem = st, st.Mem()
	rt.atoms, rt.throws = p.Atoms, throws
}

// Raise handles a machine fault of kind k. A catchable kind, in a program
// with a throw routine, becomes a ball in the ball area and Raise reports
// true: the executor continues at the unwind routine. Otherwise the fault
// is hard and the executor reports it as an error of kind k.
func (rt *Runtime) Raise(k fault.Kind) (caught bool) {
	rt.raised++
	if !fault.Catchable(k) || !rt.throws || !mterm.BallFault(rt.Mem, rt.atoms, fault.BallName(k)) {
		return false
	}
	rt.St.TouchRange(ic.BallBase, ic.BallBase+ic.BallSize)
	rt.pending = k
	rt.caught++
	return true
}

// Uncaught reports a ball that unwound past the whole choice-point stack
// (the $throwunwind Halt 2 path): the converted fault still in flight, or
// an uncaught throw of the ball, with the error reason to report.
func (rt *Runtime) Uncaught() (fault.Kind, string) {
	if rt.pending != fault.None {
		return rt.pending, rt.pending.String()
	}
	reason := fault.UncaughtThrow.String()
	if s, err := mterm.FormatOps(rt.memView(), rt.atoms, rt.Mem[ic.BallBase+1]); err == nil {
		reason += ": " + s
	}
	return fault.UncaughtThrow, reason
}

// Poll is the deadline and cancellation check the executors run every
// fault.CheckInterval steps or cycles: fault.Deadline once the wall clock
// has passed the deadline, else fault.Canceled once the interrupt channel
// is closed, else fault.None.
func (rt *Runtime) Poll() fault.Kind {
	if !rt.Deadline.IsZero() && time.Now().After(rt.Deadline) {
		return fault.Deadline
	}
	if rt.Interrupt != nil {
		select {
		case <-rt.Interrupt:
			return fault.Canceled
		default:
		}
	}
	return fault.None
}

// memView is the memory as an mterm.Mem. A pointer converts to an
// interface without allocating; the slice value would be boxed per call.
func (rt *Runtime) memView() mterm.Mem { return (*mterm.SliceMem)(&rt.Mem) }

// The sys builtins, one method per SysID except SysFault (Raise).

// Write is write/1: it appends w in operator notation to Out.
func (rt *Runtime) Write(w word.W) error {
	s, err := mterm.FormatOps(rt.memView(), rt.atoms, w)
	if err != nil {
		return err
	}
	rt.Out.WriteString(s)
	return nil
}

// Nl is nl/0.
func (rt *Runtime) Nl() { rt.Out.WriteByte('\n') }

// WriteCode writes the integer w as one character.
func (rt *Runtime) WriteCode(w word.W) { rt.Out.WriteByte(byte(w.Int())) }

// Compare is the standard-order comparison of a and b: the integer -1, 0
// or 1 the executor delivers to RegRV.
func (rt *Runtime) Compare(a, b word.W) (word.W, error) {
	c, err := mterm.Compare(rt.memView(), rt.atoms, a, b)
	if err != nil {
		return 0, err
	}
	return word.MakeInt(int64(c)), nil
}

// BallPut is throw/1's copy of the ball w into the ball area. A user throw
// supersedes any converted resource fault in flight.
func (rt *Runtime) BallPut(w word.W) error {
	// Touch before the error check: a failed copy may still have written
	// part of the ball area, and Reset must see it.
	err := mterm.BallPut(rt.Mem, w)
	rt.St.TouchRange(ic.BallBase, ic.BallBase+ic.BallSize)
	if err != nil {
		return err
	}
	rt.pending = fault.None
	return nil
}

// Mix is what a predecoded run loop counts: per-opcode dispatches (sized
// 256 and indexed by the uint8 opcode, so the increment compiles without a
// bounds check) and the superinstruction constituents the dispatch count
// gets wrong. Streams without superinstructions leave the fixups 0.
type Mix struct {
	Disp [256]int64
	// Fused second constituents skipped because the first store faulted
	// catchably: the dispatch count over-counts the second half by these.
	SkipStAdd, SkipStSt, SkipStMovI int64
	CMovMoves                       int64 // XFCMovR second constituents actually executed
	// Dereference loop bodies, which a dispatch does not count: loads (each
	// with its self-reference test) and chases (the advance, the back edge
	// and the next tag test).
	DerefLoads, DerefChases int64
}

// MixStats expands dispatch counts into the exact per-class dynamic mix in
// original-ICI units. Every dispatch counted both constituents of a pair;
// the skip counters undo the (rare) second constituents that did not
// execute, and XFCMovR's conditional second constituent is replaced by the
// count of moves that actually ran. A dereference dispatch counted its head
// alone, and the load and chase counters add the loop body. The marked
// opcodes make the dispatch array itself the choice-point and trail-undo
// counters.
func (rt *Runtime) MixStats(steps int64, x *Mix, wall time.Duration) obs.Stats {
	d := &x.Disp
	// One spare slot catches the Class2Of "no second constituent" sentinel.
	var cls [int(ic.NumClasses) + 1]int64
	for c := 0; c < int(NumCodes); c++ {
		if n := d[c]; n != 0 {
			cls[ClassOf[c]] += n
			cls[Class2Of[c]] += n
		}
	}
	cls[ic.ClassALU] -= x.SkipStAdd
	cls[ic.ClassMemory] -= x.SkipStSt
	cls[ic.ClassMove] -= x.SkipStMovI
	cls[ic.ClassMove] -= d[XFCMovR] - x.CMovMoves
	cls[ic.ClassMemory] += x.DerefLoads
	cls[ic.ClassMove] += x.DerefChases
	cls[ic.ClassControl] += x.DerefLoads + 2*x.DerefChases
	head := [int(ic.NumClasses)]int64(cls[:int(ic.NumClasses)])
	return rt.ClassStats(steps, &head, d[XMovCP], d[XLdUndo], wall)
}

// ClassStats assembles the per-run record from per-class counts and
// choice-point and trail-undo totals, adding the fault counters, the wall
// time and the page-granular memory high-water marks.
func (rt *Runtime) ClassStats(steps int64, cls *[int(ic.NumClasses)]int64, cp, undo int64, wall time.Duration) obs.Stats {
	s := obs.Stats{
		Steps:        steps,
		MemOps:       cls[ic.ClassMemory],
		ALUOps:       cls[ic.ClassALU],
		MoveOps:      cls[ic.ClassMove],
		ControlOps:   cls[ic.ClassControl],
		SysOps:       cls[ic.ClassSys],
		ChoicePoints: cp,
		TrailUndos:   undo,
		FaultsRaised: rt.raised,
		FaultsCaught: rt.caught,
		Wall:         wall,
	}
	rt.St.HighWater(&s)
	return s
}
