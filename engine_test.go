package symbol

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"symbol/internal/emu"
)

const engineSrc = `
len([], 0).
len([_|T], N) :- len(T, M), N is M+1.
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
mk(0, []).
mk(N, [N|T]) :- N > 0, M is N - 1, mk(M, T).
main :- mk(60, L), nrev(L, R), len(R, N), write(N), nl.
`

// TestProfileConcurrent is the regression test for the Program.Profile data
// race: before the sync.Once fix, concurrent first calls both wrote
// p.profile unsynchronized and this test failed under -race.
func TestProfileConcurrent(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	const workers = 8
	profiles := make([]interface{}, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			p, err := prog.Profile()
			if err != nil {
				t.Errorf("Profile: %v", err)
				return
			}
			profiles[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if profiles[i] != profiles[0] {
			t.Fatalf("Profile returned distinct instances: %p vs %p", profiles[i], profiles[0])
		}
	}
}

// TestRunOptionsValidate covers the negative-size bugfix: invalid options
// must surface as a typed *OptionError from every public entry point,
// before they can reach ic.Layout.
func TestRunOptionsValidate(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	bad := []RunOptions{
		{HeapWords: -1},
		{EnvWords: -2},
		{CPWords: -3},
		{TrailWords: -4},
		{PDLWords: -5},
		{MaxSteps: -6},
		{MaxCycles: -7},
	}
	sched, err := prog.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(prog)
	for _, opts := range bad {
		var oe *OptionError
		if _, err := prog.Run(context.Background(), opts); !errors.As(err, &oe) {
			t.Errorf("Run(%+v): got %v, want *OptionError", opts, err)
		}
		if _, err := sched.SimulateWith(context.Background(), opts); !errors.As(err, &oe) {
			t.Errorf("SimulateWith(%+v): got %v, want *OptionError", opts, err)
		}
		if _, err := eng.Run(context.Background(), opts); !errors.As(err, &oe) {
			t.Errorf("Engine.Run(%+v): got %v, want *OptionError", opts, err)
		}
	}
	if err := (RunOptions{}).Validate(); err != nil {
		t.Errorf("zero options: %v", err)
	}
}

// engineStressCases are the mixed per-run option sets of the concurrent
// stress test: a normal run, two different shrunken layouts that fault
// typed, and a tight step budget.
func engineStressCases() []RunOptions {
	return []RunOptions{
		{},                    // plain run
		{HeapWords: 4096},     // heap overflow under a shrunken heap
		{EnvWords: 512},       // env overflow under a shrunken stack
		{MaxSteps: 1000},      // step-budget fault
		{HeapWords: 1 << 20},  // large enough to succeed
		{TrailWords: 2 << 20}, // clamped to default, succeeds
	}
}

// TestEngineConcurrentStress runs N goroutines x M mixed queries against
// one Engine and asserts every outcome is identical to a serial one-shot
// execution of the same options: same success, same output, same typed
// fault kind.
func TestEngineConcurrentStress(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	cases := engineStressCases()

	// Serial ground truth, one one-shot run per case.
	type outcome struct {
		res *Result
		err error
	}
	want := make([]outcome, len(cases))
	for i, opts := range cases {
		res, err := prog.Run(context.Background(), opts)
		want[i] = outcome{res, err}
	}

	eng := NewEngine(prog)
	const rounds = 8
	runs := make([]BatchRun, 0, rounds*len(cases))
	for r := 0; r < rounds; r++ {
		for _, o := range cases {
			runs = append(runs, BatchRun{Opts: o})
		}
	}
	got := eng.RunBatch(context.Background(), runs)
	if len(got) != len(runs) {
		t.Fatalf("RunBatch returned %d outcomes for %d runs", len(got), len(runs))
	}
	for i, g := range got {
		w := want[i%len(cases)]
		if (g.Err == nil) != (w.err == nil) {
			t.Fatalf("run %d (%+v): err=%v, serial err=%v", i, runs[i], g.Err, w.err)
		}
		if g.Err != nil {
			if !errors.Is(g.Err, errors.Unwrap(w.err)) && g.Err.Error() != w.err.Error() {
				t.Fatalf("run %d (%+v): err=%v, serial err=%v", i, runs[i], g.Err, w.err)
			}
			continue
		}
		if g.Result.Succeeded != w.res.Succeeded || g.Result.Output != w.res.Output {
			t.Fatalf("run %d (%+v): got (%v, %q), serial (%v, %q)",
				i, runs[i], g.Result.Succeeded, g.Result.Output, w.res.Succeeded, w.res.Output)
		}
		if g.Result.Steps != w.res.Steps {
			t.Fatalf("run %d (%+v): steps %d, serial %d — pooled state leaked between runs",
				i, runs[i], g.Result.Steps, w.res.Steps)
		}
	}
}

// TestEngineCatchConcurrent mixes runs whose resource faults are caught by
// catch/3 — the ball area is written and must be invisible to the next run
// on the recycled state.
func TestEngineCatchConcurrent(t *testing.T) {
	src := `
build(0, []).
build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
main :- catch(build(3000, _L), resource_error(A), (write(caught(A)), nl)).
`
	prog := mustLoad(t, src)
	caught, err := prog.Run(context.Background(), RunOptions{HeapWords: 4096})
	if err != nil {
		t.Fatalf("serial caught run: %v", err)
	}
	if !strings.Contains(caught.Output, "caught(heap)") {
		t.Fatalf("serial caught run output %q", caught.Output)
	}
	plain, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("serial plain run: %v", err)
	}

	eng := NewEngine(prog)
	runs := make([]BatchRun, 40)
	for i := range runs {
		if i%2 == 0 {
			runs[i].Opts = RunOptions{HeapWords: 4096}
		}
	}
	for i, g := range eng.RunBatch(context.Background(), runs) {
		if g.Err != nil {
			t.Fatalf("run %d: %v", i, g.Err)
		}
		want := plain
		if i%2 == 0 {
			want = caught
		}
		if g.Result.Output != want.Output {
			t.Fatalf("run %d: output %q, want %q", i, g.Result.Output, want.Output)
		}
	}
}

// TestEngineRunAllocs asserts the point of recycling states: steady-state
// engine runs allocate far less than the allocate-per-run baseline (which
// makes a fresh ~19M-word memory image for every query).
func TestEngineRunAllocs(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	eng := NewEngine(prog)
	ctx := context.Background()
	// Warm the pool so the measurement sees the steady state.
	if _, err := eng.Run(ctx, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	// The baseline runs with no State, so each run allocates a fresh one;
	// prog.Run would borrow from the shared idle list like the engine.
	baseline := testing.AllocsPerRun(5, func() {
		if _, err := emu.Run(prog.IC(), emu.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	pooled := testing.AllocsPerRun(5, func() {
		if _, err := eng.Run(ctx, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/query: baseline=%.0f pooled=%.0f", baseline, pooled)
	if pooled >= baseline/2 {
		t.Fatalf("pooled path allocates %.0f objects/run, want < half of baseline %.0f", pooled, baseline)
	}
	if pooled > 64 {
		t.Fatalf("pooled path allocates %.0f objects/run, want a small constant", pooled)
	}
}

// TestEngineCancel covers ctx cancellation: an already-cancelled context
// aborts every run with the typed ErrCanceled sentinel.
func TestEngineCancel(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	eng := NewEngine(prog)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, g := range eng.RunBatch(ctx, make([]BatchRun, 4)) {
		if !errors.Is(g.Err, ErrCanceled) {
			t.Fatalf("run %d: err=%v, want ErrCanceled", i, g.Err)
		}
	}
}

// TestEngineCtxDeadline checks that a context deadline is merged into the
// run options and surfaces as the deadline fault.
func TestEngineCtxDeadline(t *testing.T) {
	src := `
loop :- loop.
main :- loop.
`
	prog := mustLoad(t, src)
	eng := NewEngine(prog)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := eng.Run(ctx, RunOptions{})
	if !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want deadline or canceled fault", err)
	}
}

// TestRunBatchPerEntryCancel: a batch entry's own context cancels that
// entry alone; siblings in the same RunBatch still get their answers.
func TestRunBatchPerEntryCancel(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	eng := NewEngine(prog)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	batch := []BatchRun{
		{Ctx: dead, Opts: RunOptions{}},
		{Opts: RunOptions{}},
		{Ctx: context.Background(), Opts: RunOptions{}},
	}
	out := eng.RunBatch(context.Background(), batch)
	if !errors.Is(out[0].Err, ErrCanceled) {
		t.Errorf("entry 0: err=%v, want ErrCanceled", out[0].Err)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Err != nil || out[i].Result == nil || !out[i].Result.Succeeded {
			t.Errorf("entry %d: res=%+v err=%v, want success", i, out[i].Result, out[i].Err)
		}
	}
}
