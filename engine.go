package symbol

import (
	"context"
	"expvar"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"symbol/internal/emu"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/obs"
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
// All methods are safe for concurrent use. Each run keeps its own
// RunOptions semantics: shrunken areas, step budgets, deadlines and typed
// faults.
type Engine struct {
	prog *Program
	met  obs.Metrics
}

// NewEngine returns an engine over p.
func NewEngine(p *Program) *Engine {
	return &Engine{prog: p}
}

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

// settle is settleState, counting the pages a clean run's reset clears.
func (e *Engine) settle(st *ic.State, clean bool) {
	if clean {
		e.met.RecordReset(st.DirtyPages())
	}
	settleState(st, clean)
}

// settleState ends a run's hold on st. When the run returned (clean), st is
// reset (O(dirty) — only the pages the run wrote) and goes back to the
// process-wide idle list for the next run in the process. After a guarded
// panic a store may be missing from its dirty set, so st is freed instead.
func settleState(st *ic.State, clean bool) {
	if clean {
		st.Release()
	} else {
		st.Free()
	}
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

// seqRun is one sequential execution begun by Engine.begin. Until it is
// settled it holds one in-flight metrics slot and one machine state.
type seqRun struct {
	m        *emu.Machine
	st       *ic.State
	trace    *obs.Trace
	deadline time.Time // RunOptions.Deadline merged with the ctx deadline
}

// begin starts one sequential execution for Run or Query: it validates
// opts, merges the ctx deadline, defaults MaxSteps to the program's budget,
// counts the start, checks out a machine state and builds the machine over
// it. Options that fail Validate are counted as rejected and start nothing.
func (e *Engine) begin(ctx context.Context, opts RunOptions) (r seqRun, err error) {
	if err := opts.Validate(); err != nil {
		e.met.RecordRejected()
		return r, err
	}
	opts = deadlineOf(ctx, opts)
	if opts.MaxSteps == 0 {
		opts.MaxSteps = e.prog.opts.MaxSteps
	}
	e.met.RecordStart()
	defer func() {
		if r.m == nil { // a guarded panic below
			e.abort(r.st, 0)
		}
	}()
	r.st = e.acquire()
	if opts.TraceEvents > 0 {
		r.trace = obs.NewTrace(opts.TraceEvents)
	}
	legacy, noFuse := opts.emuMode()
	r.m = emu.New(e.prog.icp, emu.Options{
		MaxSteps:  opts.MaxSteps,
		Layout:    opts.layout(),
		Deadline:  opts.Deadline,
		Interrupt: interruptOf(ctx),
		State:     r.st,
		Legacy:    legacy,
		NoFuse:    noFuse,
		Events:    r.trace,
	})
	r.deadline = opts.Deadline
	return r, nil
}

// abort settles a begun run that a guarded panic cut short. Every
// RecordStart must be balanced or the in-flight gauge drifts, and the
// state's dirty set may be incomplete, so st (nil if none was checked out)
// is freed rather than recycled into the next query.
func (e *Engine) abort(st *ic.State, wall time.Duration) {
	e.met.RecordFailed(fault.None, wall)
	if st != nil {
		st.Free()
	}
}

// Run answers one query on the sequential emulator using a recycled machine
// state. Cancelling ctx aborts the run with ErrCanceled; a ctx deadline
// tightens opts.Deadline. A run that faults returns its error together
// with a non-nil Result whose Succeeded is false and whose Events hold the
// events traced up to the fault (RunOptions.TraceEvents); options that
// fail Validate return a nil Result.
func (e *Engine) Run(ctx context.Context, opts RunOptions) (_ *Result, err error) {
	defer guard(&err)
	r, err := e.begin(ctx, opts)
	if err != nil {
		return nil, err
	}
	done := false
	defer func() {
		if !done {
			e.abort(r.st, r.m.Elapsed())
		}
	}()
	res, err := r.m.Run()
	done = true
	e.settle(r.st, true)
	if err != nil {
		e.met.RecordFailed(fault.KindOf(err), r.m.Elapsed())
		return (&Result{}).withEvents(r.trace), err
	}
	out := (&Result{Succeeded: res.Status == 0, Output: res.Output, Steps: res.Steps, Stats: res.Stats}).withEvents(r.trace)
	e.met.RecordDone(&out.Stats, out.Succeeded)
	return out, nil
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
	r, err := e.begin(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Solutions{eng: e, m: r.m, st: r.st, trace: r.trace, baseDeadline: r.deadline}, nil
}

// Metrics snapshots the engine-wide aggregate counters: queries by outcome,
// fault breakdown, pool behaviour, and the Add-sum of every completed run's
// Stats (Totals), plus latency and step histograms. Recording is lock-free;
// snapshotting is safe at any time from any goroutine. The snapshot's
// WriteTo renders it in the Prometheus text exposition format.
func (e *Engine) Metrics() MetricsSnapshot { return e.met.Snapshot() }

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
		if e.met.InFlight() == 0 {
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
