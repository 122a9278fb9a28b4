// Package faultsim is the differential fault-injection harness: it runs one
// compiled program through both execution paths — the sequential IntCode
// emulator and the trace-scheduled VLIW simulator — under deliberately
// shrunken memory areas and tightened budgets, and classifies how each run
// ends. The two paths implement the same architectural fault model, so for
// any injected resource configuration they must agree on the *kind* of
// fault (with the sequential step budget and the VLIW cycle budget treated
// as the same logical budget fault). Divergence means one executor's bounds
// checking, unwinding, or catch/3 support is wrong.
//
// The package deliberately does not import the public symbol package (the
// root package's tests import this one); it drives the internal pipeline
// directly.
package faultsim

import (
	"errors"
	"fmt"
	"time"

	"symbol/internal/compile"
	"symbol/internal/core"
	"symbol/internal/emu"
	"symbol/internal/expand"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/machine"
	"symbol/internal/parse"
	"symbol/internal/rename"
	"symbol/internal/vliw"
)

// Unit is a program compiled once and runnable on both executors.
type Unit struct {
	IC *ic.Program
	vp *vliw.Program // lazily scheduled (needs one fault-free profiling run)
}

// Compile builds src (which must define main/0) down to Intermediate Code.
func Compile(src string) (*Unit, error) {
	clauses, err := parse.All(src)
	if err != nil {
		return nil, err
	}
	c := compile.New(compile.DefaultOptions())
	if err := c.AddProgram(clauses); err != nil {
		return nil, err
	}
	unit, err := c.Compile()
	if err != nil {
		return nil, err
	}
	prog, err := expand.Translate(unit, c.Atoms())
	if err != nil {
		return nil, err
	}
	return &Unit{IC: rename.Fold(prog)}, nil
}

// Opts bound one injected run. Zero values mean the executor defaults
// (full-size areas, default budgets, no deadline).
type Opts struct {
	MaxSteps  int64 // sequential budget
	MaxCycles int64 // VLIW budget
	Layout    ic.Layout
	// Deadline injects a wall-clock bound into both executors. They must
	// poll it at the same cadence (fault.CheckInterval) and classify a miss
	// as the same fault.Deadline kind; a differential run catches drift.
	Deadline time.Time
	// NoFuse makes Seq run the plain predecoded stream with superinstruction
	// fusion disabled, so fused and unfused sequential runs can themselves be
	// compared differentially under every injected configuration.
	NoFuse bool
	// Legacy makes Seq run the original reference interpreter instead of the
	// predecoded stream, pinning a three-way miscompare to predecode itself.
	Legacy bool
}

// Outcome classifies how a run ended.
type Outcome struct {
	Kind      fault.Kind // None when the run terminated normally
	Succeeded bool       // Status == 0 (only meaningful when Kind == None)
	Output    string
	Err       error // the raw error, nil when Kind == None
}

// Classify maps an executor error to its fault kind. A nil error is None;
// an error outside the taxonomy (a harness bug) panics, because the whole
// point of the fault model is that no such error exists.
func Classify(err error) fault.Kind {
	if err == nil {
		return fault.None
	}
	var f *fault.Fault
	if errors.As(err, &f) {
		return f.Kind
	}
	panic(fmt.Sprintf("faultsim: untyped executor error: %v", err))
}

// Seq runs the program on the sequential emulator under opts.
func (u *Unit) Seq(opts Opts) Outcome {
	st, _ := ic.Acquire()
	res, err := emu.Run(u.IC, emu.Options{
		MaxSteps: opts.MaxSteps,
		Layout:   opts.Layout,
		Deadline: opts.Deadline,
		State:    st,
		NoFuse:   opts.NoFuse,
		Legacy:   opts.Legacy,
	})
	st.Release()
	if err != nil {
		return Outcome{Kind: Classify(err), Err: err}
	}
	return Outcome{Succeeded: res.Status == 0, Output: res.Output}
}

// schedule profiles the program under the default (fault-free) layout and
// compacts it for a 3-unit VLIW, caching the result.
func (u *Unit) schedule() (*vliw.Program, error) {
	if u.vp != nil {
		return u.vp, nil
	}
	st, _ := ic.Acquire()
	res, err := emu.Run(u.IC, emu.Options{Profile: true, State: st})
	st.Release()
	if err != nil {
		return nil, fmt.Errorf("faultsim: profiling run failed: %w", err)
	}
	vp, _, err := core.Compact(u.IC, res.Profile, machine.Default(3), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	u.vp = vp
	return vp, nil
}

// VLIW runs the scheduled program on the cycle-level simulator under opts.
// The error return reports scheduling problems only; run-time faults are
// classified in the Outcome.
func (u *Unit) VLIW(opts Opts) (Outcome, error) {
	vp, err := u.schedule()
	if err != nil {
		return Outcome{}, err
	}
	st, _ := ic.Acquire()
	res, err := vliw.Sim(vp, vliw.SimOptions{
		MaxCycles: opts.MaxCycles,
		Layout:    opts.Layout,
		Deadline:  opts.Deadline,
		State:     st,
	})
	st.Release()
	if err != nil {
		return Outcome{Kind: Classify(err), Err: err}, nil
	}
	return Outcome{Succeeded: res.Status == 0, Output: res.Output}, nil
}

// budgetFault reports whether k is a resource-budget fault. The two
// executors meter different quantities (ICI steps vs machine cycles), so a
// differential run treats any pair of budget faults as agreeing.
func budgetFault(k fault.Kind) bool {
	switch k {
	case fault.StepLimit, fault.CycleLimit, fault.Deadline:
		return true
	}
	return false
}

// Agree reports whether the two classified outcomes are the same logical
// result: both normal with identical success and output, or faults of the
// same kind (any two budget faults match).
func Agree(a, b Outcome) bool {
	if a.Kind == fault.None && b.Kind == fault.None {
		return a.Succeeded == b.Succeeded && a.Output == b.Output
	}
	if budgetFault(a.Kind) && budgetFault(b.Kind) {
		return true
	}
	return a.Kind == b.Kind
}

// Differential runs both executors under the same injected resources and
// reports the pair of outcomes. The error covers scheduling failures only.
func (u *Unit) Differential(opts Opts) (seq, par Outcome, err error) {
	seq = u.Seq(opts)
	par, err = u.VLIW(opts)
	return seq, par, err
}
