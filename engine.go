package symbol

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"symbol/internal/emu"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/obs"
	"symbol/internal/vliw"
)

// Engine is a goroutine-safe query engine over one compiled Program. It
// answers many queries concurrently by recycling machine state (the
// multi-megaword simulated memory image, the register file and the VLIW
// ready array): each run takes a zeroed ic.State from the process-wide idle
// list, executes, resets it in O(words actually written), and puts it back.
// A reset state does not depend on the program, so every engine in the
// process shares the one list: a new engine borrows the states its
// predecessors released, and an engine owns no state between runs. This
// replaces the allocate-per-run baseline, whose fresh ~19M-word memory image
// per query collapses throughput under GC pressure exactly where the
// paper's memory-operation analysis (~32% of the dynamic mix) says the hot
// path lives.
//
// All methods are safe for concurrent use. Per-run RunOptions keep their
// full fault and budget semantics: shrunken areas, step/cycle budgets and
// deadlines behave identically to Program.Run / Scheduled.SimulateWith.
type Engine struct {
	prog *Program
	met  obs.Metrics

	schedOnce sync.Once
	sched     *Scheduled
	schedErr  error
}

// NewEngine returns an engine over p that simulates, when asked, on the
// paper's default 3-unit machine. Scheduling (and the profiling run it
// needs) happens lazily on the first Simulate call.
func NewEngine(p *Program) *Engine {
	return &Engine{prog: p}
}

// Program returns the compiled program the engine serves.
func (e *Engine) Program() *Program { return e.prog }

// acquire takes a zeroed machine state from the process-wide idle list,
// counting a pool miss when the list was empty and a fresh state had to be
// allocated.
func (e *Engine) acquire() *ic.State {
	e.met.RecordPoolGet()
	st, fresh := ic.Acquire()
	if fresh {
		e.met.RecordPoolMiss()
	}
	return st
}

// release resets st (O(dirty) — only the pages the run wrote) and returns
// it to the process-wide idle list for the next query of any engine.
func (e *Engine) release(st *ic.State) {
	e.met.RecordReset(st.DirtyPages())
	st.Release()
}

// interruptOf exposes a context's cancellation signal to the executors
// (nil for contexts that can never be cancelled, keeping the hot loop's
// poll free).
func interruptOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// deadlineOf merges a context deadline into the per-run deadline, taking
// the earlier of the two.
func deadlineOf(ctx context.Context, opts RunOptions) RunOptions {
	if ctx == nil {
		return opts
	}
	if d, ok := ctx.Deadline(); ok && (opts.Deadline.IsZero() || d.Before(opts.Deadline)) {
		opts.Deadline = d
	}
	return opts
}

// Run answers one query on the sequential emulator using a recycled machine
// state. Cancelling ctx aborts the run with ErrCanceled; a ctx deadline
// tightens opts.Deadline. A run that faults returns its error together
// with a non-nil Result whose Succeeded is false and whose Events hold the
// events traced up to the fault (RunOptions.TraceEvents); options that
// fail Validate return a nil Result.
func (e *Engine) Run(ctx context.Context, opts RunOptions) (_ *Result, err error) {
	defer guard(&err)
	if err := opts.Validate(); err != nil {
		e.met.RecordRejected()
		return nil, err
	}
	opts = deadlineOf(ctx, opts)
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = e.prog.opts.MaxSteps
	}
	e.met.RecordStart()
	start := time.Now()
	// Every RecordStart must be balanced or the in-flight gauge drifts; the
	// settled flag covers the guarded-panic exit, which reaches neither the
	// RecordFailed nor the RecordDone call below.
	settled := false
	defer func() {
		if !settled {
			e.met.RecordFailed(fault.None, time.Since(start))
		}
	}()
	st := e.acquire()
	// On a guarded panic the state's dirty set may be incomplete, so the
	// state is dropped (not recycled) rather than risk leaking a word into
	// the next query; errors are normal returns and recycle fine.
	clean := false
	defer func() {
		if clean {
			e.release(st)
		}
	}()
	var trace *obs.Trace
	if opts.TraceEvents > 0 {
		trace = obs.NewTrace(opts.TraceEvents)
	}
	legacy, noFuse := opts.emuMode()
	res, err := emu.Run(e.prog.icp, emu.Options{
		MaxSteps:  maxSteps,
		Layout:    opts.layout(),
		Deadline:  opts.Deadline,
		Interrupt: interruptOf(ctx),
		State:     st,
		Legacy:    legacy,
		NoFuse:    noFuse,
		Events:    trace,
	})
	clean = true
	if err != nil {
		settled = true
		e.met.RecordFailed(fault.KindOf(err), time.Since(start))
		return (&Result{}).withEvents(trace), err
	}
	r := (&Result{Succeeded: res.Status == 0, Output: res.Output, Steps: res.Steps, Stats: res.Stats}).withEvents(trace)
	settled = true
	e.met.RecordDone(&r.Stats, r.Succeeded)
	return r, nil
}

// Query starts the query on the sequential emulator and returns a
// Solutions stream over all of its answers instead of just the first: the
// machine suspends at each solution and backtracks on demand when the
// caller asks for the next one. The stream holds one machine state and one
// in-flight metrics slot until it finishes or is Closed; budgets
// (MaxSteps, Deadline, ctx cancellation) span the whole stream. Query
// itself does not execute anything — the first Next does — so a returned
// stream must always be Closed, even if never iterated.
func (e *Engine) Query(ctx context.Context, opts RunOptions) (_ *Solutions, err error) {
	defer guard(&err)
	if err := opts.Validate(); err != nil {
		e.met.RecordRejected()
		return nil, err
	}
	opts = deadlineOf(ctx, opts)
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = e.prog.opts.MaxSteps
	}
	e.met.RecordStart()
	// Balance RecordStart if anything below panics (guard converts it to an
	// error return); the acquired state is dropped, not recycled.
	ok := false
	defer func() {
		if !ok {
			e.met.RecordFailed(fault.None, 0)
		}
	}()
	st := e.acquire()
	var trace *obs.Trace
	if opts.TraceEvents > 0 {
		trace = obs.NewTrace(opts.TraceEvents)
	}
	legacy, noFuse := opts.emuMode()
	m := emu.New(e.prog.icp, emu.Options{
		MaxSteps:  maxSteps,
		Layout:    opts.layout(),
		Deadline:  opts.Deadline,
		Interrupt: interruptOf(ctx),
		State:     st,
		Legacy:    legacy,
		NoFuse:    noFuse,
		Events:    trace,
	})
	ok = true
	return &Solutions{eng: e, m: m, st: st, trace: trace, baseDeadline: opts.Deadline}, nil
}

// Scheduled returns the engine's lazily compacted program (scheduling it on
// first use), so callers can inspect the code the Simulate path runs.
func (e *Engine) Scheduled() (*Scheduled, error) {
	e.schedOnce.Do(func() {
		e.sched, e.schedErr = e.prog.ScheduleWith(DefaultMachine(3))
	})
	return e.sched, e.schedErr
}

// Simulate answers one query on the cycle-level VLIW simulator using a
// recycled machine state, scheduling the program on first use. Cancelling
// ctx aborts the run with ErrCanceled.
func (e *Engine) Simulate(ctx context.Context, opts RunOptions) (_ *SimResult, err error) {
	defer guard(&err)
	if err := opts.Validate(); err != nil {
		e.met.RecordRejected()
		return nil, err
	}
	sched, err := e.Scheduled()
	if err != nil {
		return nil, err
	}
	opts = deadlineOf(ctx, opts)
	e.met.RecordStart()
	start := time.Now()
	settled := false
	defer func() {
		if !settled {
			e.met.RecordFailed(fault.None, time.Since(start))
		}
	}()
	st := e.acquire()
	clean := false
	defer func() {
		if clean {
			e.release(st)
		}
	}()
	var trace *obs.Trace
	if opts.TraceEvents > 0 {
		trace = obs.NewTrace(opts.TraceEvents)
	}
	r, err := vliw.Sim(sched.vprog, vliw.SimOptions{
		MaxCycles: opts.MaxCycles,
		Layout:    opts.layout(),
		Deadline:  opts.Deadline,
		Interrupt: interruptOf(ctx),
		State:     st,
		Events:    trace,
	})
	clean = true
	if err != nil {
		settled = true
		e.met.RecordFailed(fault.KindOf(err), time.Since(start))
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
	settled = true
	e.met.RecordDone(&sr.Stats, sr.Succeeded)
	return sr, nil
}

// Metrics snapshots the engine-wide aggregate counters: queries by outcome,
// fault breakdown, pool behaviour, and the Add-sum of every completed run's
// Stats (Totals), plus latency and step histograms. Recording is lock-free;
// snapshotting is safe at any time from any goroutine.
func (e *Engine) Metrics() MetricsSnapshot { return e.met.Snapshot() }

// WriteMetrics renders the current metrics snapshot in the Prometheus text
// exposition format, for mounting on any HTTP mux:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//	    eng.WriteMetrics(w)
//	})
func (e *Engine) WriteMetrics(w io.Writer) error {
	_, err := e.met.Snapshot().WriteTo(w)
	return err
}

// expvarOwners tracks which engine registered each expvar name, so
// PublishExpvar can be idempotent (expvar itself has no unregister and
// panics on re-registration).
var (
	expvarMu     sync.Mutex
	expvarOwners = map[string]*Engine{}
)

// ErrExpvarTaken reports a PublishExpvar name conflict: the name is already
// registered, either by a different engine or by something else in the
// process (expvar has no unregister, so the conflict is permanent).
type ErrExpvarTaken struct{ Name string }

func (e *ErrExpvarTaken) Error() string {
	return fmt.Sprintf("symbol: expvar name %q already registered", e.Name)
}

// PublishExpvar registers the engine's metrics snapshot as an expvar
// variable under name, so it appears as JSON on the standard /debug/vars
// endpoint. It is idempotent: publishing the same engine under the same
// name again is a no-op. A name already held by a different engine — or by
// any other expvar in the process — returns *ErrExpvarTaken instead of
// panicking, so a duplicate name can never take the process down.
func (e *Engine) PublishExpvar(name string) error {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if owner, ok := expvarOwners[name]; ok {
		if owner == e {
			return nil
		}
		return &ErrExpvarTaken{Name: name}
	}
	if expvar.Get(name) != nil {
		return &ErrExpvarTaken{Name: name}
	}
	expvar.Publish(name, expvar.Func(func() any { return e.met.Snapshot() }))
	expvarOwners[name] = e
	return nil
}

// Pressure reads a cheap point-in-time load signal (a few atomic loads, no
// histogram copying): how many runs are executing right now, how many have
// ever started, and how often a checkout found the idle state list empty
// and had to allocate. Admission controllers can poll it on every request
// without measurable cost.
func (e *Engine) Pressure() Pressure { return e.met.Pressure() }

// WaitIdle blocks until the engine has no runs in flight, polling the
// in-flight gauge, or until ctx is done (returning its error). It is the
// drain primitive: after the caller stops submitting work and cancels
// outstanding run contexts, WaitIdle reports when the last executor has
// actually exited, so metrics are final and the process can exit without
// abandoning a run mid-flight.
func (e *Engine) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if e.met.Pressure().InFlight == 0 {
			return nil
		}
		if ctx == nil {
			<-tick.C
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// BatchResult is one outcome of Engine.RunBatch: the run's Result, or the
// typed error that ended it. Exactly one of the fields is non-nil.
type BatchResult struct {
	Result *Result
	Err    error
}

// BatchRun is one entry of an Engine.RunBatch fan-out: the run's options
// plus an optional per-run context. A nil Ctx means the run is bounded only
// by the batch context; a non-nil Ctx cancels this run alone (the run
// aborts when either context is done). The serving layer's request
// coalescer uses per-run contexts to keep each coalesced class of requests
// individually cancellable — a client abandoning its class must not drag
// down siblings that still want their answer.
type BatchRun struct {
	Ctx  context.Context
	Opts RunOptions
}

// RunBatch answers every entry of a batch, fanning out across
// min(GOMAXPROCS, len(batch)) workers that share the idle state list, with
// per-entry contexts honoured alongside the batch context. Each run keeps
// its own RunOptions semantics (budgets, deadlines, area sizes, typed
// faults). Because the engine is deterministic — the same program on
// a fresh state under the same budgets computes the same answer — a caller
// may execute one entry per *distinct* budget class and share the result
// across every request that posed it; that coalescing contract is what the
// serving layer's batcher relies on, and it is only sound because each run
// starts from a zeroed recycled state.
//
// The returned slice always has len(batch) entries, index-aligned with the
// input. Cancelling ctx aborts every run; cancelling an entry's own Ctx
// aborts just that entry, either way as typed ErrCanceled.
func (e *Engine) RunBatch(ctx context.Context, batch []BatchRun) []BatchResult {
	out := make([]BatchResult, len(batch))
	if len(batch) == 0 {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(batch) {
		workers = len(batch)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				runCtx := batch[i].Ctx
				if runCtx == nil {
					runCtx = ctx
				} else if ctx != nil {
					// The run must stop when either context is done. Derive
					// a child of the entry's context and chain the batch
					// context's cancellation into it.
					var cancel context.CancelFunc
					runCtx, cancel = context.WithCancel(runCtx)
					stop := context.AfterFunc(ctx, cancel)
					res, err := e.runBatchOne(runCtx, batch[i].Opts)
					stop()
					cancel()
					out[i] = BatchResult{Result: res, Err: err}
					continue
				}
				res, err := e.runBatchOne(runCtx, batch[i].Opts)
				out[i] = BatchResult{Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// runBatchOne runs one batch entry, short-circuiting runs whose context is
// already dead so a cancelled batch drains in O(len) without touching a
// machine state.
func (e *Engine) runBatchOne(ctx context.Context, opts RunOptions) (*Result, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ErrCanceled
	}
	res, err := e.Run(ctx, opts)
	if err != nil {
		res = nil // a BatchResult holds a Result or an error, not both
	}
	return res, err
}
