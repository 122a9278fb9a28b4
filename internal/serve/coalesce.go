package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"symbol"
)

// batcher coalesces admitted single-shot queries onto shared engine runs.
// The engine is deterministic — the same program on a fresh pooled state
// under the same budgets computes the same answer — so N requests for the
// same (kb, goal) with the same budget class need ONE run, not N. Admitted
// requests park for a short batching window; the window closes early when
// the batch fills (MaxBatch, so MaxBatch 1 runs every request at once) or
// when every admitted request in the server is already parked (nothing
// else is running, so no more company is coming), and the window timer is
// the backstop. One flush executes one Engine.RunBatch with one entry per
// distinct budget class and fans each class's result back to its members.
//
// The coalescing contract deliberately excludes paginated queries: a
// Solutions stream is stateful (a suspended machine), so /query?limit=N
// and cursor resumes keep their dedicated runs.
type batcher struct {
	s      *Server
	window time.Duration
	linger time.Duration // quiet-close grace; see submit
	max    int

	mu      sync.Mutex
	pending map[*symbol.Engine]*batch
	parked  int // members currently parked, across every pending batch
}

// batch is the coalescing point of one engine: the members gathered so far
// and the wake channel its flush goroutine waits on.
type batch struct {
	eng       *symbol.Engine
	members   []*batchMember
	once      sync.Once
	quietOnce sync.Once
	wake      chan struct{}
}

// close signals the flush goroutine to stop waiting; idempotent.
func (bt *batch) close() { bt.once.Do(func() { close(bt.wake) }) }

// quiet arms the linger: the batch closes after the grace period unless
// something closes it sooner (filling, the window timer, drain). The
// first quiet signal wins; later ones are no-ops, so the linger is a
// bounded delay from the moment the server first looked idle, not a
// sliding window.
func (bt *batch) quiet(linger time.Duration) {
	bt.quietOnce.Do(func() { time.AfterFunc(linger, bt.close) })
}

// classKey identifies a budget class within a batch: members with equal
// keys pose byte-identical runs (same step/memory budgets, same wall-clock
// allowance) and share one run's result. The key carries the timeout
// *duration*, not an absolute deadline — members of a class were admitted
// microseconds apart, and the shared run uses one deadline computed at
// flush time.
type classKey struct {
	maxSteps int64
	heap     int64
	env      int64
	cp       int64
	trail    int64
	pdl      int64
	timeout  time.Duration
}

func classOf(opts symbol.RunOptions, timeout time.Duration) classKey {
	return classKey{
		maxSteps: opts.MaxSteps,
		heap:     opts.HeapWords,
		env:      opts.EnvWords,
		cp:       opts.CPWords,
		trail:    opts.TrailWords,
		pdl:      opts.PDLWords,
		timeout:  timeout,
	}
}

// batchMember is one parked request: its context (for per-member
// cancellation), its budget class, and the channel its handler waits on.
type batchMember struct {
	ctx  context.Context
	key  classKey
	opts symbol.RunOptions
	done chan batchOutcome
	sent bool // owned by the executing goroutine
}

type batchOutcome struct {
	res *symbol.Result
	err error
}

func newBatcher(s *Server) *batcher {
	// The linger is a small fraction of the window: long enough for the
	// scheduler to drain pending socket reads into the batch, short enough
	// that a genuinely lone query barely notices it.
	linger := s.cfg.BatchWindow / 8
	if linger < 50*time.Microsecond {
		linger = 50 * time.Microsecond
	}
	if linger > time.Millisecond {
		linger = time.Millisecond
	}
	return &batcher{
		s:       s,
		window:  s.cfg.BatchWindow,
		linger:  linger,
		max:     s.cfg.MaxBatch,
		pending: map[*symbol.Engine]*batch{},
	}
}

// submit parks the request in eng's pending batch (opening one if needed)
// and blocks until the flush delivers its class's result. The caller holds
// an admission slot and a flight registration throughout — parked members
// still count as in flight, which is what bounds a batch by MaxInFlight.
//
// If the member's own context dies first (client disconnect), submit
// answers immediately with ErrCanceled; the shared run keeps serving the
// surviving siblings and aborts on its own once every member of the class
// is gone.
func (b *batcher) submit(ctx context.Context, eng *symbol.Engine, opts symbol.RunOptions, timeout time.Duration) (*symbol.Result, error) {
	m := &batchMember{
		ctx:  ctx,
		key:  classOf(opts, timeout),
		opts: opts,
		done: make(chan batchOutcome, 1),
	}
	b.mu.Lock()
	bt := b.pending[eng]
	if bt == nil {
		bt = &batch{eng: eng, wake: make(chan struct{})}
		b.pending[eng] = bt
		go b.flushAfter(bt)
	}
	bt.members = append(bt.members, m)
	b.parked++
	full := len(bt.members) >= b.max
	if full {
		// Detach at once: the next request opens a fresh batch, so no batch
		// ever exceeds MaxBatch while its flush is on its way.
		delete(b.pending, eng)
	}
	// Quiet early close: the admission queue is empty and every admitted
	// request is parked in some batch — nothing inside the server is left
	// running to finish and send company, so waiting out the full window
	// would buy pure latency. But "nothing admitted" is not "nothing
	// coming": under synchronous clients the next requests are often
	// sitting unread in socket buffers, invisible to admission counters
	// until a CPU reads them. So quiet does not close the batch — it arms
	// a short linger; parking this goroutine frees the scheduler to admit
	// whatever the sockets hold, and those requests either fill the batch
	// (closing it) or share the flush when the linger expires. (Parked
	// cursor sessions hold admission slots without parking here, so a
	// suspended stream keeps InFlight above parked and disables the quiet
	// path entirely — the window timer still bounds the wait.)
	var all []*batch
	if !full && b.s.gate.depth() == 0 && b.s.met.InFlight() <= int64(b.parked) {
		all = make([]*batch, 0, len(b.pending))
		for _, p := range b.pending {
			all = append(all, p)
		}
	}
	b.mu.Unlock()

	if full {
		bt.close()
	}
	for _, p := range all {
		p.quiet(b.linger)
	}

	select {
	case out := <-m.done:
		return out.res, out.err
	case <-ctx.Done():
		return nil, symbol.ErrCanceled
	}
}

// flushAfter waits out bt's batching window (or its early close, or a hard
// drain), detaches the batch, and executes it.
func (b *batcher) flushAfter(bt *batch) {
	t := time.NewTimer(b.window)
	defer t.Stop()
	select {
	case <-t.C:
	case <-bt.wake:
	case <-b.s.drainCtx.Done():
	}
	b.mu.Lock()
	if b.pending[bt.eng] == bt {
		delete(b.pending, bt.eng)
	}
	members := bt.members
	b.parked -= len(members)
	b.mu.Unlock()
	b.execute(bt.eng, members)
}

// execute groups the members into budget classes, runs one engine run per
// class via RunBatch, and fans each class's outcome back to its members.
// Every member is answered exactly once, even if this goroutine panics.
func (b *batcher) execute(eng *symbol.Engine, members []*batchMember) {
	if len(members) == 0 {
		return
	}
	order := make([]classKey, 0, 4)
	classes := make(map[classKey][]*batchMember, 4)
	for _, m := range members {
		if _, ok := classes[m.key]; !ok {
			order = append(order, m.key)
		}
		classes[m.key] = append(classes[m.key], m)
	}

	deliver := func(m *batchMember, out batchOutcome) {
		if !m.sent {
			m.sent = true
			m.done <- out
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			b.s.met.RecordPanic()
			b.s.cfg.Logf("serve: panic executing batch: %v", rec)
			out := batchOutcome{err: errors.New("serve: internal error in batched run")}
			for _, m := range members {
				deliver(m, out)
			}
		}
	}()

	// One run per class. Each class's context cancels only when EVERY
	// member's request context has died — one client disconnecting must not
	// drag down siblings that still want the answer. The wall budget rides
	// in RunOptions.Deadline (flush time + the class's timeout), so a
	// timeout terminates as the typed fault.Deadline.
	now := time.Now()
	runs := make([]symbol.BatchRun, len(order))
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	for i, k := range order {
		ms := classes[k]
		opts := ms[0].opts
		if k.timeout > 0 {
			opts.Deadline = now.Add(k.timeout)
		}
		cctx, cancel := context.WithCancel(context.Background())
		cleanup = append(cleanup, cancel)
		var gone atomic.Int64
		n := int64(len(ms))
		for _, m := range ms {
			stop := context.AfterFunc(m.ctx, func() {
				if gone.Add(1) == n {
					cancel()
				}
			})
			cleanup = append(cleanup, func() { stop() })
		}
		runs[i] = symbol.BatchRun{Ctx: cctx, Opts: opts}
	}

	// A hard drain aborts the whole batch; members answer 503 through the
	// drain-refined Canceled mapping in writeRunError.
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	stopDrain := context.AfterFunc(b.s.drainCtx, bcancel)
	defer stopDrain()

	results := eng.RunBatch(bctx, runs)
	b.s.met.RecordBatch(len(members), len(order))
	for i, k := range order {
		out := batchOutcome{res: results[i].Result, err: results[i].Err}
		for _, m := range classes[k] {
			deliver(m, out)
		}
	}
}
