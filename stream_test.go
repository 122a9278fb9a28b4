package symbol

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"symbol/internal/benchprog"
)

const streamKB = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`

// streamAll drains a fresh stream of goal against kb under opts, returning
// the per-solution results. Fatal on compile or stream errors.
func streamAll(t *testing.T, kb, goal string, opts RunOptions) []*Result {
	t.Helper()
	prog := mustLoad(t, kb, WithGoal(goal))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	var out []*Result
	for sols.Next() {
		out = append(out, sols.Result())
	}
	if err := sols.Err(); err != nil {
		t.Fatalf("stream error after %d solutions: %v", len(out), err)
	}
	return out
}

// TestQueryStreamsSolutions is the basic streaming contract: every solution
// of a nondeterministic goal arrives exactly once, in backtracking order,
// with per-solution Output and cumulative Steps.
func TestQueryStreamsSolutions(t *testing.T) {
	sols := streamAll(t, streamKB, "app(X, Y, [1,2,3])", RunOptions{})
	want := []string{
		"X = []\nY = [1,2,3]\n",
		"X = [1]\nY = [2,3]\n",
		"X = [1,2]\nY = [3]\n",
		"X = [1,2,3]\nY = []\n",
	}
	if len(sols) != len(want) {
		t.Fatalf("got %d solutions, want %d", len(sols), len(want))
	}
	prev := int64(0)
	for i, r := range sols {
		if r.Output != want[i] {
			t.Errorf("solution %d output %q, want %q", i, r.Output, want[i])
		}
		if !r.Succeeded {
			t.Errorf("solution %d not marked succeeded", i)
		}
		if r.Steps <= prev {
			t.Errorf("solution %d steps %d not cumulative (prev %d)", i, r.Steps, prev)
		}
		prev = r.Steps
	}
}

// TestQueryStreamDifferential is the acceptance differential: the full
// 92-solution 8-queens stream must be identical — count, per-solution
// Output, per-solution cumulative Steps — across all three dispatch modes
// (fused, plain predecoded, legacy interpreter).
func TestQueryStreamDifferential(t *testing.T) {
	b, err := benchprog.Get("queens_8")
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		opts RunOptions
	}{
		{"fused", RunOptions{}},
		{"nofuse", RunOptions{Dispatch: DispatchNoFuse}},
		{"legacy", RunOptions{TraceEvents: 4}},
	}
	var ref []*Result
	for _, m := range modes {
		sols := streamAll(t, b.Source, "queens(8, Qs)", m.opts)
		if len(sols) != 92 {
			t.Fatalf("%s: got %d solutions, want 92", m.name, len(sols))
		}
		if ref == nil {
			ref = sols
			continue
		}
		for i := range sols {
			if sols[i].Output != ref[i].Output {
				t.Fatalf("%s: solution %d output %q, fused %q",
					m.name, i, sols[i].Output, ref[i].Output)
			}
			if sols[i].Steps != ref[i].Steps {
				t.Fatalf("%s: solution %d steps %d, fused %d",
					m.name, i, sols[i].Steps, ref[i].Steps)
			}
		}
	}
}

// TestSuspendedStreamSurvivesCollection: a suspended stream holds its
// machine state, and the state's memory image, on its own. With the engine
// dropped and two collections forced at every suspension, the stream must
// resume to the same answers and step counts as an uninterrupted run.
func TestSuspendedStreamSurvivesCollection(t *testing.T) {
	b, err := benchprog.Get("queens_8")
	if err != nil {
		t.Fatal(err)
	}
	want := streamAll(t, b.Source, "queens(8, Qs)", RunOptions{})
	prog := mustLoad(t, b.Source, WithGoal("queens(8, Qs)"))
	sols, err := NewEngine(prog).Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	var got []*Result
	for sols.Next() {
		got = append(got, sols.Result())
		runtime.GC()
		runtime.GC()
	}
	if err := sols.Err(); err != nil {
		t.Fatalf("stream error after %d solutions: %v", len(got), err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d solutions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Output != want[i].Output || got[i].Steps != want[i].Steps {
			t.Fatalf("solution %d: %q in %d steps, uninterrupted %q in %d steps",
				i, got[i].Output, got[i].Steps, want[i].Output, want[i].Steps)
		}
	}
}

// TestQueryFirstSolutionMatchesRun pins the streaming API to the one-shot
// API: the first streamed solution is byte- and step-identical to
// Engine.Run of the same program.
func TestQueryFirstSolutionMatchesRun(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	one, err := eng.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	if !sols.Next() {
		t.Fatalf("no first solution: %v", sols.Err())
	}
	r := sols.Result()
	if r.Output != one.Output || r.Steps != one.Steps {
		t.Fatalf("first streamed solution (%q, %d steps) != Run (%q, %d steps)",
			r.Output, r.Steps, one.Output, one.Steps)
	}
}

// TestSolutionsCloseReleasesState covers cheap abandonment: closing a
// stream mid-way settles the engine's metrics exactly once, frees the
// in-flight slot, and recycles the pooled state for later runs.
func TestSolutionsCloseReleasesState(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sols.Next() || !sols.Next() {
		t.Fatalf("expected two solutions before Close: %v", sols.Err())
	}
	if m := eng.Metrics(); m.InFlight != 1 {
		t.Fatalf("suspended stream holds %d in-flight slots, want 1", m.InFlight)
	}
	if err := sols.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Idempotent, and Next after Close stays false.
	if err := sols.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sols.Next() || sols.More() {
		t.Fatal("Next/More true after Close")
	}
	m := eng.Metrics()
	if m.InFlight != 0 {
		t.Fatalf("in-flight %d after Close, want 0", m.InFlight)
	}
	if m.Started != 1 || m.Succeeded != 1 {
		t.Fatalf("stream settled as started=%d succeeded=%d, want 1/1", m.Started, m.Succeeded)
	}
	// WaitIdle must not see a phantom run, and the pool must still work.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := eng.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle after Close: %v", err)
	}
	res, err := eng.Run(context.Background(), RunOptions{})
	if err != nil || !res.Succeeded {
		t.Fatalf("run on recycled state: %v, %+v", err, res)
	}
}

// TestSolutionsAbandonStress abandons many streams at different depths
// under -race: pooled state recycling must stay consistent and the engine
// must end fully idle with exact metrics.
func TestSolutionsAbandonStress(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3,4,5])"))
	eng := NewEngine(prog)
	const streams = 24
	done := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func(depth int) {
			sols, err := eng.Query(context.Background(), RunOptions{})
			if err != nil {
				done <- err
				return
			}
			for j := 0; j <= depth%6 && sols.Next(); j++ {
			}
			done <- sols.Close()
		}(i)
	}
	for i := 0; i < streams; i++ {
		if err := <-done; err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	m := eng.Metrics()
	if m.InFlight != 0 {
		t.Fatalf("in-flight %d after all streams closed, want 0", m.InFlight)
	}
	if m.Started != streams {
		t.Fatalf("started %d, want %d", m.Started, streams)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := eng.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
}

// TestSolutionsMaxStepsSpansResumes: the step budget is a property of the
// whole stream, not of each segment — a budget generous enough for the
// first solutions must still abort the stream once the cumulative count
// crosses it.
func TestSolutionsMaxStepsSpansResumes(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3,4,5,6,7,8])"))
	eng := NewEngine(prog)

	// Measure the unconstrained stream to pick a budget that lands
	// strictly between the first solution and exhaustion.
	free, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var stepsAt []int64
	for free.Next() {
		stepsAt = append(stepsAt, free.Result().Steps)
	}
	free.Close()
	if len(stepsAt) < 3 {
		t.Fatalf("want >= 3 solutions, got %d", len(stepsAt))
	}
	budget := stepsAt[len(stepsAt)-2]

	sols, err := eng.Query(context.Background(), RunOptions{MaxSteps: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	n := 0
	for sols.Next() {
		n++
	}
	if err := sols.Err(); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("after %d solutions err=%v, want ErrStepLimit", n, err)
	}
	if n == 0 || n >= len(stepsAt) {
		t.Fatalf("budget %d yielded %d solutions, want 1..%d", budget, n, len(stepsAt)-1)
	}
	if m := eng.Metrics(); m.InFlight != 0 {
		t.Fatalf("in-flight %d after stream fault, want 0", m.InFlight)
	}
}

// TestSolutionsCancelBetweenSolutions: a context cancelled while the
// stream is suspended aborts the next resume as the typed canceled fault
// and settles the stream.
func TestSolutionsCancelBetweenSolutions(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	ctx, cancel := context.WithCancel(context.Background())
	sols, err := eng.Query(ctx, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	if !sols.Next() {
		t.Fatalf("first solution: %v", sols.Err())
	}
	cancel()
	if sols.Next() {
		t.Fatal("Next succeeded after cancel")
	}
	if err := sols.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	if m := eng.Metrics(); m.InFlight != 0 {
		t.Fatalf("in-flight %d after cancel, want 0", m.InFlight)
	}
}

// TestSolutionsAttachRebinds: a stream parked past one context's lifetime
// keeps working when re-attached to a live context — the embedding pattern
// behind paginated serving.
func TestSolutionsAttachRebinds(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()

	page1, cancel1 := context.WithCancel(context.Background())
	sols.Attach(page1)
	if !sols.Next() {
		t.Fatalf("page 1: %v", sols.Err())
	}
	cancel1() // the old page's context dying must not poison the stream

	page2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	sols.Attach(page2)
	n := 1
	for sols.Next() {
		n++
	}
	if err := sols.Err(); err != nil {
		t.Fatalf("page 2: %v", err)
	}
	if n != 4 {
		t.Fatalf("got %d solutions across pages, want 4", n)
	}
}

// TestSolutionsNoSolution: a goal with no answers yields an empty stream
// with nil Err, and settles as a no-solution run.
func TestSolutionsNoSolution(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app([9], _, [1,2])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	if sols.Next() {
		t.Fatalf("unexpected solution %+v", sols.Result())
	}
	if err := sols.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	m := eng.Metrics()
	if m.Started != 1 || m.Succeeded != 0 || m.NoSolution != 1 || m.InFlight != 0 {
		t.Fatalf("metrics started=%d succeeded=%d nosolution=%d inflight=%d, want 1/0/1/0",
			m.Started, m.Succeeded, m.NoSolution, m.InFlight)
	}
}

// TestSolutionsAllIterator exercises the range-over-func adapter,
// including early break (which must Close the stream).
func TestSolutionsAllIterator(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for r := range sols.All() {
		if r.Output == "" {
			t.Error("empty solution output")
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("iterated %d solutions, want 2", n)
	}
	if sols.Next() {
		t.Fatal("stream not closed after breaking out of All")
	}
	if m := eng.Metrics(); m.InFlight != 0 || m.Succeeded != 1 {
		t.Fatalf("metrics inflight=%d succeeded=%d after All break, want 0/1", m.InFlight, m.Succeeded)
	}
}

// TestSolutionsStatsCumulative: the stats attached to each solution and
// the settled totals cover the whole stream — Wall counts execution only,
// so a long suspension between Next calls must not inflate it.
func TestSolutionsStatsCumulative(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	sols, err := eng.Query(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	if !sols.Next() {
		t.Fatalf("first solution: %v", sols.Err())
	}
	w1 := sols.Result().Stats.Wall
	time.Sleep(30 * time.Millisecond) // suspended: must not be billed
	if !sols.Next() {
		t.Fatalf("second solution: %v", sols.Err())
	}
	r := sols.Result()
	if r.Stats.Wall < w1 {
		t.Fatalf("wall went backwards across resume: %v -> %v", w1, r.Stats.Wall)
	}
	if r.Stats.Wall > w1+20*time.Millisecond {
		t.Fatalf("wall %v includes suspension time (first segment %v)", r.Stats.Wall, w1)
	}
	sum := r.Stats.MemOps + r.Stats.ALUOps + r.Stats.MoveOps + r.Stats.ControlOps + r.Stats.SysOps
	if sum != r.Steps {
		t.Fatalf("op-class counts sum to %d, cumulative steps %d", sum, r.Steps)
	}
}
