// Package symbol is the public API of the SYMBOL system, a from-scratch
// reproduction of "Instruction-level Parallelism in Prolog: Analysis and
// Architectural Support" (De Gloria & Faraboschi, ISCA 1992).
//
// The pipeline mirrors the paper's evaluation system (Figure 1):
//
//	Prolog source → BAM code → Intermediate Code (ICI)
//	             → sequential emulation (answers + profile)
//	             → global compaction (trace scheduling)
//	             → VLIW simulation (cycles per configuration)
//
// Each job has one entry point:
//
//	prog, err := symbol.Load(ctx, src)                        // Prolog source or snapshot
//	res, err := prog.Run(ctx, symbol.RunOptions{})            // sequential answers
//	fmt.Print(res.Stats)                                      // paper-style op-class mix
//	sched, err := prog.ScheduleWith(symbol.DefaultMachine(3)) // trace scheduling
//	sim, err := sched.SimulateWith(ctx, symbol.RunOptions{})  // measured VLIW cycles
//
// Load accepts Prolog source or a binary snapshot (sniffed by magic
// header) and compiles queries against a knowledge base via WithGoal.
// Programs round-trip through prog.Snapshot() and symbol compile -o
// prog.sym.
//
// RunOptions bounds a run; its zero value means the defaults:
//
//	res, err := prog.Run(ctx, symbol.RunOptions{
//	    MaxSteps:    1e6,
//	    HeapWords:   64 << 10,
//	    TraceEvents: 256, // keep the last 256 events
//	})
//
// Program.Run builds a throwaway Engine per call. For serving many
// queries, build an Engine once (recycled machine state, engine-wide
// metrics) and stream every answer of a query with Engine.Query:
//
//	eng := symbol.NewEngine(prog)
//	res, err := eng.Run(ctx, symbol.RunOptions{})
//	sols, err := eng.Query(ctx, symbol.RunOptions{})
//	eng.Metrics().WriteTo(os.Stdout) // Prometheus text format
package symbol

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbol/internal/bam"
	"symbol/internal/compile"
	"symbol/internal/emu"
	"symbol/internal/expand"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/obs"
	"symbol/internal/rename"
	"symbol/internal/term"
)

// Stats is the per-run execution record attached to every Result and
// SimResult: dynamic operation-class mix in original-ICI units (comparable
// to the paper's Table 2), memory high-water marks, choice-point and trail
// activity, fault counts, and wall time. See the internal/obs package for
// field semantics.
type Stats = obs.Stats

// Event is one traced executor milestone; EventKind enumerates the kinds.
// Events are collected only when a run opts in via
// RunOptions.TraceEvents.
type (
	Event     = obs.Event
	EventKind = obs.EventKind
)

// Event kinds, re-exported from the observability layer.
const (
	EvCall       = obs.EvCall
	EvExec       = obs.EvExec
	EvReturn     = obs.EvReturn
	EvFail       = obs.EvFail
	EvChoicePush = obs.EvChoicePush
	EvChoicePop  = obs.EvChoicePop
	EvCatch      = obs.EvCatch
	EvThrow      = obs.EvThrow
	EvFault      = obs.EvFault
	EvHalt       = obs.EvHalt
)

// MetricsSnapshot is a point-in-time copy of an Engine's aggregate metrics,
// JSON-serializable and renderable as Prometheus text via WriteTo.
type MetricsSnapshot = obs.Snapshot

// Typed fault sentinels, re-exported so callers can classify failures with
// errors.Is without importing internal packages. Both the sequential
// emulator and the VLIW simulator report these kinds.
var (
	ErrHeapOverflow  = fault.ErrHeapOverflow
	ErrEnvOverflow   = fault.ErrEnvOverflow
	ErrCPOverflow    = fault.ErrCPOverflow
	ErrTrailOverflow = fault.ErrTrailOverflow
	ErrPDLOverflow   = fault.ErrPDLOverflow
	ErrStepLimit     = fault.ErrStepLimit
	ErrCycleLimit    = fault.ErrCycleLimit
	ErrDeadline      = fault.ErrDeadline
	ErrZeroDivide    = fault.ErrZeroDivide
	ErrInvalidMemory = fault.ErrInvalidMemory
	ErrUncaughtThrow = fault.ErrUncaughtThrow
	ErrCanceled      = fault.ErrCanceled
)

// guard converts an escaped panic into an error at the API boundary, so no
// malformed program or internal bug can crash an embedding process.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("symbol: internal panic: %v", r)
	}
}

// Dispatch selects the sequential emulator's execution core. The modes are
// observationally identical — same output, Steps, stats, fault points and
// suspend/resume behaviour, enforced differentially — and differ only in
// throughput; see the README's dispatch-mode table for measurements.
type Dispatch uint8

const (
	// DispatchAuto uses the default core. Auto tracks whatever the best
	// general-purpose core is rather than pinning one; today it selects
	// the fused switch loop.
	DispatchAuto Dispatch = iota
	// DispatchLegacy is the original non-predecoded reference interpreter,
	// the semantic baseline (and the only core that supports tracing).
	DispatchLegacy
	// DispatchNoFuse runs the plain predecoded stream, one internal op per
	// ICI, with superinstruction fusion disabled.
	DispatchNoFuse
	// DispatchFused runs the fused predecoded stream (superinstructions).
	DispatchFused
)

// DispatchThreaded named the closure-threaded core, which was removed
// because it did not clear the fused core across the corpus. It now selects
// the fused core.
//
// Deprecated: use DispatchFused.
const DispatchThreaded = DispatchFused

// String returns the flag-compatible name of the mode.
func (d Dispatch) String() string {
	switch d {
	case DispatchAuto:
		return "auto"
	case DispatchLegacy:
		return "legacy"
	case DispatchNoFuse:
		return "nofuse"
	case DispatchFused:
		return "fused"
	}
	return fmt.Sprintf("Dispatch(%d)", uint8(d))
}

// RunOptions bound one execution (sequential or simulated): resource
// budgets, a wall-clock deadline, and per-area memory sizes in words. Zero
// fields mean the defaults; area sizes are clamped to the compile-time
// maximums. Overflowing a shrunken area raises a typed fault that Prolog
// code can intercept with catch/3 as resource_error(Area).
type RunOptions struct {
	MaxSteps   int64     // sequential ICI budget (0 = default)
	MaxCycles  int64     // VLIW cycle budget (0 = default)
	Deadline   time.Time // wall-clock bound (zero = none)
	HeapWords  int64
	EnvWords   int64
	CPWords    int64
	TrailWords int64
	PDLWords   int64
	// Dispatch selects the sequential emulator's execution core (legacy,
	// plain predecoded, or fused). Observable behaviour is identical across
	// all of them; the knob exists for benchmarking the dispatch layers and
	// for pinning down a miscompare. DispatchAuto (the zero value) selects
	// the default core. TraceEvents overrides any choice here: tracing
	// requires the legacy interpreter.
	Dispatch Dispatch
	// TraceEvents, when positive, records the run's last TraceEvents
	// executor milestones (calls, fails, choice-point pushes/pops,
	// catch/throw, faults) into Result.Events / SimResult.Events. Tracing a
	// sequential run routes it onto the reference interpreter, so it is
	// opt-in per run and costs the fast paths nothing when off.
	TraceEvents int
}

// OptionError reports a RunOptions field holding a nonsensical value (for
// example a negative area size or budget). It is returned before any
// machine state is touched, so an invalid request can never fault or panic
// deep inside an executor.
type OptionError struct {
	Field string // the offending RunOptions field name
	Value int64
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("symbol: invalid RunOptions.%s: %d", e.Field, e.Value)
}

// Validate checks the options. Zero values are always valid (they mean the
// defaults); negative budgets and negative area sizes are rejected with a
// *OptionError. Oversized areas are not an error — ic.Layout clamps them to
// the compile-time maximums.
func (o RunOptions) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MaxSteps", o.MaxSteps},
		{"MaxCycles", o.MaxCycles},
		{"HeapWords", o.HeapWords},
		{"EnvWords", o.EnvWords},
		{"CPWords", o.CPWords},
		{"TrailWords", o.TrailWords},
		{"PDLWords", o.PDLWords},
		{"TraceEvents", int64(o.TraceEvents)},
	} {
		if f.v < 0 {
			return &OptionError{Field: f.name, Value: f.v}
		}
	}
	return nil
}

// emuMode expands the dispatch choice into the emulator's mode flags.
func (o RunOptions) emuMode() (legacy, noFuse bool) {
	return o.Dispatch == DispatchLegacy, o.Dispatch == DispatchNoFuse
}

func (o RunOptions) layout() ic.Layout {
	return ic.Layout{
		HeapWords:  o.HeapWords,
		EnvWords:   o.EnvWords,
		CPWords:    o.CPWords,
		TrailWords: o.TrailWords,
		PDLWords:   o.PDLWords,
	}
}

// Options configure compilation.
type Options struct {
	// ArithChecks controls runtime tag checking on arithmetic (default on).
	ArithChecks bool
	// MaxSteps bounds sequential emulation (0 = default limit).
	MaxSteps int64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{ArithChecks: true}
}

// Program is a compiled Prolog program ready for emulation and scheduling.
// It is immutable after Load and safe to share across goroutines: the only
// lazily computed piece of state, the execution profile, is built under a
// sync.Once.
type Program struct {
	opts      Options
	icp       *ic.Program
	undefined []string
	src       string // source text (embedded in snapshots; "" if unavailable)
	goal      string // query goal for programs loaded WithGoal

	profOnce  sync.Once
	profile   *emu.Profile
	profErr   error
	profBuilt atomic.Bool // profile computed successfully (for snapshot embedding)
}

// compileBAM is the front end: parsed clauses → BAM.
func compileBAM(clauses []term.Term, opts Options) (*bam.Unit, *compile.Compiler, error) {
	c := compile.New(compile.Options{ArithChecks: opts.ArithChecks})
	if err := c.AddProgram(clauses); err != nil {
		return nil, nil, fmt.Errorf("symbol: %w", err)
	}
	unit, err := c.Compile()
	if err != nil {
		return nil, nil, fmt.Errorf("symbol: %w", err)
	}
	return unit, c, nil
}

// compileClauses is the shared back half of compilation: parsed clauses →
// BAM → ICI → Program. Every source compile (Load, with or without
// WithGoal, and the snapshot version-skew fallback) ends here. src and goal
// are recorded on the Program so snapshots can embed them for the recompile
// fallback and BAMListing can regenerate the BAM; the BAM unit itself is
// dropped once expanded.
func compileClauses(clauses []term.Term, opts Options, src, goal string) (*Program, error) {
	unit, c, err := compileBAM(clauses, opts)
	if err != nil {
		return nil, err
	}
	prog, err := expand.Translate(unit, c.Atoms())
	if err != nil {
		return nil, fmt.Errorf("symbol: %w", err)
	}
	var undef []string
	for _, pi := range c.Undefined() {
		undef = append(undef, pi.String())
	}
	return &Program{opts: opts, icp: rename.Fold(prog), undefined: undef, src: src, goal: goal}, nil
}

// Undefined lists predicates that are called but never defined (calls to
// them fail at run time).
func (p *Program) Undefined() []string { return p.undefined }

// Source returns the Prolog source the program was compiled from (the
// knowledge base for query programs), or "" when it is unavailable — a
// snapshot written without an embedded source section.
func (p *Program) Source() string { return p.src }

// Goal returns the query goal for programs built by Load's WithGoal, and
// "" for whole-program compiles.
func (p *Program) Goal() string { return p.goal }

// BAMListing returns the BAM assembly produced by the front end. A loaded
// program does not keep its BAM: the listing is compiled afresh from the
// retained source (Source, posed Goal for query programs) under the
// program's compile options, so snapshot-loaded programs list it too. It
// returns "" when no source is available, or when the source does not
// compile (a snapshot's embedded source is not checked against its code).
func (p *Program) BAMListing() string {
	if p.src == "" {
		return ""
	}
	clauses, _, err := sourceClauses(p.src, p.goal)
	if err != nil {
		return ""
	}
	unit, _, err := compileBAM(clauses, p.opts)
	if err != nil {
		return ""
	}
	return unit.Listing()
}

// ICListing returns the Intermediate Code disassembly.
func (p *Program) ICListing() string { return p.icp.Listing() }

// IC exposes the Intermediate Code program.
func (p *Program) IC() *ic.Program { return p.icp }

// CodeSize returns the number of static ICIs.
func (p *Program) CodeSize() int { return len(p.icp.Code) }

// Run executes the program sequentially under ctx and opts on a throwaway
// single-use engine: it is NewEngine(p).Run(ctx, opts). Cancelling ctx
// aborts the run with ErrCanceled; a ctx deadline tightens opts.Deadline.
// Resource faults surface as typed errors (errors.Is against
// ErrHeapOverflow and friends) unless the program catches them with
// catch/3. For serving many queries build an Engine once and reuse it.
func (p *Program) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	return NewEngine(p).Run(ctx, opts)
}

// Result is the observable outcome of a program run.
type Result struct {
	// Succeeded reports whether main/0 found a solution.
	Succeeded bool
	// Output is the text written by write/1 and nl/0.
	Output string
	// Steps is the dynamic ICI count (also available as Stats.Steps).
	Steps int64

	// Stats is the run's embedded execution record: op-class mix, memory
	// high-water marks, choice-point and trail activity, faults, wall time.
	// Its non-shadowed fields promote (r.MemOps, r.Wall, ...).
	Stats

	// Events holds the traced executor milestones when the run asked for
	// them (RunOptions.TraceEvents); EventsDropped counts older
	// events evicted from the bounded ring.
	Events        []Event
	EventsDropped int64
}

// String summarizes the run: outcome and headline counters, followed by the
// paper-style operation-class mix table.
func (r *Result) String() string {
	return fmt.Sprintf("ok=%v %s", r.Succeeded, r.Stats.String())
}

// withEvents copies a traced run's events into r, and returns r.
func (r *Result) withEvents(t *obs.Trace) *Result {
	if t != nil {
		r.Events = t.Events()
		r.EventsDropped = t.Dropped()
	}
	return r
}

// Profile runs the sequential emulator with statistics collection and
// caches the result (used by the trace scheduler and the analyses). It
// always runs under the default memory layout: the profile must describe
// the program's normal behaviour, not a fault-injected run.
//
// The profiling run happens exactly once per Program, under a sync.Once, so
// concurrent callers are safe and all observe the same cached profile (or
// the same error).
func (p *Program) Profile() (*emu.Profile, error) {
	p.profOnce.Do(func() {
		defer guard(&p.profErr)
		st, _ := ic.Acquire()
		clean := false
		defer func() { settleState(st, clean) }()
		res, err := emu.Run(p.icp, emu.Options{MaxSteps: p.opts.MaxSteps, Profile: true, State: st})
		clean = true
		if err != nil {
			p.profErr = err
			return
		}
		p.profile = res.Profile
		p.profBuilt.Store(true)
	})
	return p.profile, p.profErr
}
