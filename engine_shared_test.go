package symbol

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"symbol/internal/ic"
)

// sharedSrc is a second program, different from engineSrc, for tests that
// check machine states moving between engines of different programs.
const sharedSrc = `
fib(0, 0).
fib(1, 1).
fib(N, F) :- N > 1, A is N-1, B is N-2, fib(A, FA), fib(B, FB), F is FA+FB.
main :- fib(15, F), write(F), nl.
`

// TestEngineSharedStateNewEngine: machine states are shared process-wide,
// so an engine created after another engine ran — over a different
// program, and after a collection — borrows the released state instead of
// allocating its own.
func TestEngineSharedStateNewEngine(t *testing.T) {
	progA := mustLoad(t, engineSrc)
	progB := mustLoad(t, sharedSrc)
	if _, err := NewEngine(progA).Run(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	engB := NewEngine(progB)
	res, err := engB.Run(context.Background(), RunOptions{})
	if err != nil || !res.Succeeded || res.Output != "610\n" {
		t.Fatalf("engine B: res=%+v err=%v, want 610", res, err)
	}
	if m := engB.Metrics(); m.PoolGets != 1 || m.PoolMisses != 0 {
		t.Fatalf("engine B's first run: pool gets=%d misses=%d, want 1/0", m.PoolGets, m.PoolMisses)
	}
}

// TestEngineSharedIdleCap: streams held open at once each hold a state;
// closing more of them than GOMAXPROCS leaves exactly GOMAXPROCS states
// idle, and the rest to the collector.
func TestEngineSharedIdleCap(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2,3])"))
	eng := NewEngine(prog)
	procs := runtime.GOMAXPROCS(0)
	streams := make([]*Solutions, procs+2)
	for i := range streams {
		sols, err := eng.Query(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sols.Next() {
			t.Fatalf("stream %d: no first solution: %v", i, sols.Err())
		}
		streams[i] = sols
	}
	for _, sols := range streams {
		if err := sols.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := ic.Idle(); n != procs {
		t.Fatalf("idle states after closing %d streams = %d, want GOMAXPROCS = %d", len(streams), n, procs)
	}
}

// TestEngineSharedRunAllConcurrent runs RunBatch on engines of two programs
// at once, so their runs trade states through the idle list; under -race
// it checks the list's locking, and every outcome must equal the
// sequential run of the same options.
func TestEngineSharedRunAllConcurrent(t *testing.T) {
	cases := engineStressCases()
	var runs []BatchRun
	for r := 0; r < 4; r++ {
		for _, o := range cases {
			runs = append(runs, BatchRun{Opts: o})
		}
	}
	var engines []*Engine
	var want [][]BatchResult
	for _, src := range []string{engineSrc, sharedSrc} {
		prog := mustLoad(t, src)
		eng := NewEngine(prog)
		seq := make([]BatchResult, len(runs))
		for i, o := range runs {
			res, err := eng.Run(context.Background(), o.Opts)
			seq[i] = BatchResult{Result: res, Err: err}
		}
		engines = append(engines, eng)
		want = append(want, seq)
	}

	got := make([][]BatchResult, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			got[i] = eng.RunBatch(context.Background(), runs)
		}(i, eng)
	}
	wg.Wait()

	for e := range engines {
		for i := range runs {
			g, w := got[e][i], want[e][i]
			if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
				t.Fatalf("engine %d run %d (%+v): err=%v, sequential err=%v", e, i, runs[i], g.Err, w.Err)
			}
			if g.Err != nil {
				continue
			}
			gs, ws := g.Result.Stats, w.Result.Stats
			gs.Wall, ws.Wall = 0, 0
			if g.Result.Succeeded != w.Result.Succeeded || g.Result.Output != w.Result.Output ||
				g.Result.Steps != w.Result.Steps || gs != ws {
				t.Fatalf("engine %d run %d (%+v): got %+v, sequential %+v", e, i, runs[i], g.Result, w.Result)
			}
		}
	}
}
