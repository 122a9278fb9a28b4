package symbol

import (
	"fmt"

	"symbol/internal/core"
	"symbol/internal/emu"
	"symbol/internal/ic"
	"symbol/internal/machine"
	"symbol/internal/obs"
	"symbol/internal/vliw"
)

// MachineConfig is the target architecture description (paper §3, §4.5).
type MachineConfig = machine.Config

// DefaultMachine returns the paper's measurement configuration with n
// units: all operations last one cycle except memory and control, which are
// two-cycle pipelined.
func DefaultMachine(n int) MachineConfig { return machine.Default(n) }

// UnboundedMachine has effectively infinite functional units (Table 1).
func UnboundedMachine() MachineConfig { return machine.Unbounded() }

// BAMMachine is the single-issue delayed-branch RISC stand-in for the BAM
// processor (used with BasicBlocksOnly compaction).
func BAMMachine() MachineConfig { return machine.BAM() }

// ScheduleOption mutates ScheduleOptions; the With* constructors below are
// the functional-option way to configure ScheduleWith.
type ScheduleOption func(*ScheduleOptions)

// WithBasicBlocksOnly restricts compaction to basic blocks (no trace
// scheduling) — the Table 1 baseline.
func WithBasicBlocksOnly() ScheduleOption {
	return func(o *ScheduleOptions) { o.BasicBlocksOnly = true }
}

// WithMaxTraceBlocks bounds trace growth.
func WithMaxTraceBlocks(n int) ScheduleOption {
	return func(o *ScheduleOptions) { o.MaxTraceBlocks = n }
}

// WithScheduleOptions replaces the whole option struct; later options still
// apply on top.
func WithScheduleOptions(opts ScheduleOptions) ScheduleOption {
	return func(o *ScheduleOptions) { *o = opts }
}

// ScheduleOptions control the global compaction.
type ScheduleOptions struct {
	// BasicBlocksOnly restricts compaction to basic blocks (no trace
	// scheduling), the paper's Table 1 baseline and the stand-in for the
	// BAM processor's instruction-level behaviour.
	BasicBlocksOnly bool
	// MaxTraceBlocks bounds trace growth (0 = default).
	MaxTraceBlocks int
	// NoTailDuplication disables growing traces through join points by
	// cloning (ablation of the code-size/trace-length trade-off).
	NoTailDuplication bool
	// TailDupOpsPercent overrides the duplication budget as a percentage
	// of the program size (0 = default).
	TailDupOpsPercent int
}

// Scheduled is a compacted program ready for cycle-accurate simulation.
type Scheduled struct {
	prog  *Program
	vprog *vliw.Program
	stats *core.Stats
}

// ScheduleWith profiles the program (if needed) and compacts it for conf,
// configured by functional options:
//
//	sched, err := prog.ScheduleWith(symbol.DefaultMachine(3),
//	    symbol.WithMaxTraceBlocks(8))
func (p *Program) ScheduleWith(conf MachineConfig, opts ...ScheduleOption) (_ *Scheduled, err error) {
	defer guard(&err)
	var o ScheduleOptions
	for _, f := range opts {
		f(&o)
	}
	return p.scheduleOpts(conf, o)
}

func (p *Program) scheduleOpts(conf MachineConfig, opts ScheduleOptions) (*Scheduled, error) {
	prof, err := p.Profile()
	if err != nil {
		return nil, err
	}
	copts := core.DefaultOptions()
	if opts.BasicBlocksOnly {
		copts.TraceScheduling = false
	}
	if opts.MaxTraceBlocks > 0 {
		copts.MaxBlocks = opts.MaxTraceBlocks
	}
	if opts.NoTailDuplication {
		copts.TailDuplication = false
	}
	if opts.TailDupOpsPercent > 0 {
		copts.TailDupMaxOps = opts.TailDupOpsPercent
	}
	vp, stats, err := core.Compact(p.icp, prof, conf, copts)
	if err != nil {
		return nil, err
	}
	return &Scheduled{prog: p, vprog: vp, stats: stats}, nil
}

// Words returns the static number of VLIW words.
func (s *Scheduled) Words() int { return len(s.vprog.Words) }

// Ops returns the static number of scheduled operations.
func (s *Scheduled) Ops() int { return s.vprog.OpCount() }

// AvgTraceLen is the execution-weighted average compaction-unit length in
// operations (Table 1 "Average Length").
func (s *Scheduled) AvgTraceLen() float64 { return s.stats.AvgTraceLen }

// Listing disassembles the scheduled code.
func (s *Scheduled) Listing() string { return s.vprog.Listing() }

// VLIW exposes the linked program (for the simulator and tools).
func (s *Scheduled) VLIW() *vliw.Program { return s.vprog }

// SimResult is the outcome of simulating compacted code.
type SimResult struct {
	Succeeded bool
	Output    string
	Cycles    int64
	Words     int64
	Ops       int64
	Bubble    int64

	// Stats is the run's embedded execution record. For a VLIW run
	// Stats.Steps counts issued operations (which can differ from the
	// sequential count under speculation and tail duplication) and
	// Stats.Cycles equals Cycles.
	Stats

	// Events holds the traced executor milestones when the run asked for
	// them (RunOptions.TraceEvents). The VLIW trace is an
	// approximate stream: it records the milestones the simulator can see
	// inline (calls, throws, choice-point pushes, fails, faults, halt).
	Events        []Event
	EventsDropped int64
}

// Simulate runs the compacted program on the cycle-level VLIW simulator.
func (s *Scheduled) Simulate() (*SimResult, error) {
	return s.SimulateWith(RunOptions{})
}

// SimulateWith runs the compacted program under explicit resource bounds,
// with the same typed-fault and catch/3 semantics as Program.Run.
func (s *Scheduled) SimulateWith(opts RunOptions) (_ *SimResult, err error) {
	defer guard(&err)
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var trace *obs.Trace
	if opts.TraceEvents > 0 {
		trace = obs.NewTrace(opts.TraceEvents)
	}
	// A panic skips the Release: the state is dropped, not recycled.
	st, _ := ic.Acquire()
	r, err := vliw.Sim(s.vprog, vliw.SimOptions{
		MaxCycles: opts.MaxCycles,
		Layout:    opts.layout(),
		Deadline:  opts.Deadline,
		State:     st,
		Events:    trace,
	})
	st.Release()
	if err != nil {
		return nil, err
	}
	sr := &SimResult{
		Succeeded: r.Status == 0,
		Output:    r.Output,
		Cycles:    r.Cycles,
		Words:     r.Words,
		Ops:       r.Ops,
		Bubble:    r.Bubble,
		Stats:     r.Stats,
	}
	if trace != nil {
		sr.Events = trace.Events()
		sr.EventsDropped = trace.Dropped()
	}
	return sr, nil
}

// SeqCycles computes the pure sequential machine's cycle count from the
// profile under the paper's hypotheses: one operation at a time, memory and
// control operations cost two cycles, everything else one (§4.3).
func (p *Program) SeqCycles() (int64, error) {
	prof, err := p.Profile()
	if err != nil {
		return 0, err
	}
	return seqCycles(p.icp, prof), nil
}

func seqCycles(icp *ic.Program, prof *emu.Profile) int64 {
	var total int64
	for pc := range icp.Code {
		if prof.Expect[pc] == 0 {
			continue
		}
		c := icp.Code[pc].Class()
		total += prof.Expect[pc] * machine.SeqCost(c == ic.ClassMemory || c == ic.ClassControl)
	}
	return total
}

// Speedup is a convenience: sequential cycles divided by VLIW cycles.
func Speedup(seq, par int64) float64 {
	if par == 0 {
		return 0
	}
	return float64(seq) / float64(par)
}

// String renders a SimResult: the headline cycle counts followed by the
// paper-style operation-class mix table.
func (r *SimResult) String() string {
	return fmt.Sprintf("cycles=%d words=%d ops=%d bubbles=%d ok=%v\n%s",
		r.Cycles, r.Words, r.Ops, r.Bubble, r.Succeeded, r.Stats.MixTable())
}
