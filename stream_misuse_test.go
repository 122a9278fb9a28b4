package symbol

import (
	"context"
	"testing"
	"time"
)

// Misuse tests for the Solutions protocol: every call outside the happy
// Next/Result/Err order must be a defined no-op or a typed error — never a
// panic, and never a double release of the pooled state.

// TestSolutionsAccessorsBeforeNext: Result, Err and More are callable on a
// stream whose first Next has not run. Result is nil (no solution yet), Err
// is nil (nothing terminated the stream), and closing the unstarted stream
// settles the metrics exactly once and recycles the state.
func TestSolutionsAccessorsBeforeNext(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r := sols.Result(); r != nil {
		t.Fatalf("Result before first Next = %+v, want nil", r)
	}
	if err := sols.Err(); err != nil {
		t.Fatalf("Err before first Next = %v, want nil", err)
	}
	if err := sols.Close(); err != nil {
		t.Fatalf("Close of unstarted stream: %v", err)
	}
	m := eng.Metrics()
	if m.InFlight != 0 || m.Started != 1 || m.Succeeded != 0 {
		t.Fatalf("metrics inflight=%d started=%d succeeded=%d after unstarted Close, want 0/1/0",
			m.InFlight, m.Started, m.Succeeded)
	}
	// The recycled state must still serve a full run.
	res, err := eng.Run(context.Background(), RunOptions{})
	if err != nil || !res.Succeeded {
		t.Fatalf("run after unstarted Close: %v, %+v", err, res)
	}
}

// TestSolutionsNextAfterClose: once closed, Next stays false forever,
// Result stays nil, and Err keeps returning the stream's terminal error
// (nil here). Repeated Close calls return the same answer and settle the
// metrics only once.
func TestSolutionsNextAfterClose(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sols.Next() {
		t.Fatalf("first Next: %v", sols.Err())
	}
	if err := sols.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if sols.Next() {
			t.Fatalf("Next %d after Close returned true", i)
		}
		if r := sols.Result(); r != nil {
			t.Fatalf("Result after Close = %+v, want nil", r)
		}
		if err := sols.Err(); err != nil {
			t.Fatalf("Err after Close = %v, want nil", err)
		}
		if err := sols.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+2, err)
		}
	}
	m := eng.Metrics()
	if m.Started != 1 || m.Succeeded != 1 || m.InFlight != 0 {
		t.Fatalf("metrics started=%d succeeded=%d inflight=%d after repeated Close, want 1/1/0",
			m.Started, m.Succeeded, m.InFlight)
	}
}

// TestSolutionsDoubleCloseSingleRelease guards the pool against a double
// Put: after hammering Close on one stream, two concurrently drained
// streams must each see a private machine state (distinct, correct
// 4-solution streams; -race would flag a shared state), and the engine
// must settle every run exactly once.
func TestSolutionsDoubleCloseSingleRelease(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sols.Next() {
		t.Fatalf("Next: %v", sols.Err())
	}
	for i := 0; i < 4; i++ {
		if err := sols.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	// If Close had returned the state more than once, the pool could hand
	// the same *ic.State to both of these streams.
	done := make(chan int, 2)
	for g := 0; g < 2; g++ {
		go func() {
			s, err := eng.Query(context.Background(), RunOptions{})
			if err != nil {
				done <- -1
				return
			}
			defer s.Close()
			n := 0
			for s.Next() {
				n++
			}
			if s.Err() != nil {
				n = -1
			}
			done <- n
		}()
	}
	for g := 0; g < 2; g++ {
		if n := <-done; n != 4 {
			t.Fatalf("concurrent stream after double Close got %d solutions, want 4", n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := eng.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	m := eng.Metrics()
	if m.Started != 3 || m.InFlight != 0 {
		t.Fatalf("metrics started=%d inflight=%d, want 3/0", m.Started, m.InFlight)
	}
}

// TestSolutionsErrAfterFaultStable: after a stream dies on a typed fault,
// Err and Close keep returning that same error on every call, and Next
// stays false — the terminal error is sticky, not one-shot.
func TestSolutionsErrAfterFaultStable(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	if sols.Next() {
		t.Fatal("Next succeeded under a 1-step budget")
	}
	first := sols.Err()
	if first == nil {
		t.Fatal("no terminal error under a 1-step budget")
	}
	for i := 0; i < 3; i++ {
		if sols.Next() {
			t.Fatalf("Next %d true after fault", i)
		}
		if err := sols.Err(); err != first {
			t.Fatalf("Err changed across calls: %v then %v", first, err)
		}
		if err := sols.Close(); err != first {
			t.Fatalf("Close returned %v, want the terminal error %v", err, first)
		}
	}
	m := eng.Metrics()
	var faulted int64
	for _, n := range m.Faults {
		faulted += n
	}
	if m.InFlight != 0 || faulted != 1 {
		t.Fatalf("metrics inflight=%d faulted=%d after fault, want 0/1", m.InFlight, faulted)
	}
}
