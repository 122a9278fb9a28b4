package symbol

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"time"

	"symbol/internal/emu"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/obs"
)

// Solutions streams the answers of one query, one solution per Next call,
// in the style of database/sql.Rows:
//
//	sols, err := eng.Query(ctx, symbol.RunOptions{})
//	if err != nil { ... }
//	defer sols.Close()
//	for sols.Next() {
//	    fmt.Print(sols.Result().Output)
//	}
//	if err := sols.Err(); err != nil { ... }
//
// Between Next calls the machine is suspended at the last solution — the
// machine state (heap, choice-point stack, trail) stays live, and the next
// Next backtracks into the next untried alternative. Close abandons a
// stream mid-way in O(dirty pages): the state is reset and returned to the
// process-wide idle list without running the query to exhaustion.
//
// The engine's metrics count the whole stream as one run: it occupies one
// in-flight slot from Query until the stream finishes (exhaustion, error,
// or Close), and settles exactly once — as succeeded if at least one
// solution was produced. Step and deadline budgets span the whole stream:
// MaxSteps bounds the cumulative step count across all solutions, and the
// Wall recorded on settle counts only execution time, not time spent
// suspended between Next calls.
//
// A Solutions is safe for concurrent use, but Next/Result/Err form the
// usual iteration protocol and are meant to be driven by one consumer;
// Close may be called from any goroutine (e.g. a timeout sweeper) at any
// time between Next calls.
type Solutions struct {
	mu           sync.Mutex
	eng          *Engine
	m            *emu.Machine
	st           *ic.State
	trace        *obs.Trace
	baseDeadline time.Time

	cur      *Result
	err      error
	sawSol   bool
	started  bool // first segment has run
	closed   bool
	finished bool // terminal: metrics settled, state disposed
	poisoned bool // a guarded panic left the state unsafe to recycle
}

// Next advances to the next solution. It reports false when the stream is
// over: no more solutions, an error (check Err), or the stream was closed.
// The first call runs the query from the start; later calls backtrack.
func (s *Solutions) Next() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.finished {
		return false
	}
	var (
		res *emu.Result
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.poisoned = true
				err = fmt.Errorf("symbol: internal error: %v", r)
			}
		}()
		if !s.started {
			s.started = true
			res, err = s.m.Run()
		} else {
			res, err = s.m.Resume()
		}
	}()
	if err != nil {
		s.cur = (&Result{}).withEvents(s.trace)
		s.err = err
		s.finish(func() { s.eng.met.RecordFailed(fault.KindOf(err), s.m.Elapsed()) })
		return false
	}
	if res.Status != 0 {
		// Exhausted: the final segment's stats are the cumulative record of
		// the whole stream, including the last (fruitless) backtrack.
		s.cur = nil
		st := res.Stats
		s.finish(func() { s.eng.met.RecordDone(&st, s.sawSol) })
		return false
	}
	s.cur = (&Result{Succeeded: true, Output: res.Output, Steps: res.Steps, Stats: res.Stats}).withEvents(s.trace)
	s.sawSol = true
	return true
}

// Result returns the solution produced by the last successful Next: its
// Output holds only this solution's text, while Steps and Stats are
// cumulative across the stream so far. After a Next that failed with an
// error it returns the faulting run's record, as Engine.Run does: Succeeded
// false, with the events traced up to the fault. It returns nil when Next
// has produced neither, and after Close.
func (s *Solutions) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Err returns the error that terminated the stream, if any. Exhaustion
// (Next returning false because there are no more solutions) is not an
// error.
func (s *Solutions) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// More reports whether the machine is suspended at a solution, i.e. the
// stream has not finished and a further Next may yield another answer (it
// may still come back empty-handed — More does not look ahead).
func (s *Solutions) More() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && !s.finished && s.m.More()
}

// Attach rebinds the stream's cancellation and deadline to ctx for
// subsequent Next calls, merging any ctx deadline with the per-run
// Deadline the stream was created with. It lets an embedder that parks a
// suspended stream (e.g. a paginated server) give each resumption its own
// request-scoped abort conditions. A nil ctx detaches: no cancellation,
// only the original deadline. Attach does not interrupt a Next already in
// progress on another goroutine.
func (s *Solutions) Attach(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.finished {
		return
	}
	s.m.SetInterrupt(interruptOf(ctx))
	d := s.baseDeadline
	if ctx != nil {
		if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
			d = cd
		}
	}
	s.m.SetDeadline(d)
}

// Close ends the stream. If it has not already finished, the engine's
// metrics are settled (the stream counts as succeeded if it produced at
// least one solution, and its cumulative stats so far are recorded) and
// the machine state is reset and returned to the idle list. Close is
// idempotent and returns the stream's terminal error, like Err.
func (s *Solutions) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	s.cur = nil
	if !s.finished {
		st := s.m.Stats()
		s.finish(func() { s.eng.met.RecordDone(&st, s.sawSol) })
	}
	return s.err
}

// finish settles the stream exactly once: record the terminal metrics
// outcome (balancing the RecordStart made by Query) and dispose of the
// machine state — recycled normally, dropped if a panic may have left its
// dirty set incomplete.
func (s *Solutions) finish(record func()) {
	if s.finished {
		return
	}
	s.finished = true
	record()
	if !s.poisoned {
		s.eng.release(s.st)
	}
}

// All adapts the stream to a range-over-func iterator. The stream is
// closed when the loop ends, however it ends; check Err afterwards to
// distinguish exhaustion from an error:
//
//	for r := range sols.All() {
//	    fmt.Print(r.Output)
//	}
//	if err := sols.Err(); err != nil { ... }
func (s *Solutions) All() iter.Seq[*Result] {
	return func(yield func(*Result) bool) {
		defer s.Close()
		for s.Next() {
			if !yield(s.Result()) {
				return
			}
		}
	}
}
