package symbol

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/ic"
	"symbol/internal/stats"
)

// classCounts projects a Stats into the ic.Class-indexed layout of the
// legacy profile analysis, for direct comparison with stats.ComputeMix.
func classCounts(s *Stats) [ic.NumClasses]int64 {
	var out [ic.NumClasses]int64
	out[ic.ClassMemory] = s.MemOps
	out[ic.ClassALU] = s.ALUOps
	out[ic.ClassMove] = s.MoveOps
	out[ic.ClassControl] = s.ControlOps
	out[ic.ClassSys] = s.SysOps
	return out
}

// TestStatsParity checks the central accounting claim of the observability
// layer: the op-class breakdown the predecoded loop derives from per-opcode
// dispatch counters equals, exactly, the breakdown the profile analysis
// (stats.ComputeMix over Expect) derives for the same execution — on every
// benchmark program, in every execution mode (fused, nofuse, legacy).
// Profiles come from the legacy reference interpreter, so for the fused and
// nofuse modes the oracle is an independent cross-check: per-pc Expect
// counts against dispatch counts expanded through exec.ClassOf/Class2Of.
// It also pins the counters the classes are built from: class-sum == Steps,
// and choice-point/trail-undo counts agree across modes.
func TestStatsParity(t *testing.T) {
	for _, b := range benchprog.All() {
		if b.Heavy && testing.Short() {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog := mustLoad(t, b.Source)

			// Oracle: the reference interpreter's Expect vector, classified
			// statically. The reference interpreter also counts choice
			// points and trail undos from instruction marks directly; the
			// predecoded loop counts them from the remapped opcodes. They
			// must agree.
			ref, err := emu.Run(prog.icp, emu.Options{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			oracle := stats.ComputeMix(prog.icp, ref.Profile)

			modes := map[string]emu.Options{
				"fused":  {},
				"nofuse": {NoFuse: true},
				"legacy": {Legacy: true},
			}
			for name, opts := range modes {
				res, err := emu.Run(prog.icp, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s := res.Stats
				got := classCounts(&s)
				if got != oracle.Counts {
					t.Errorf("%s: class counts %v != profile-derived %v", name, got, oracle.Counts)
				}
				if s.Steps != oracle.Total {
					t.Errorf("%s: steps %d != profile total %d", name, s.Steps, oracle.Total)
				}
				if sum := s.MemOps + s.ALUOps + s.MoveOps + s.ControlOps + s.SysOps; sum != s.Steps {
					t.Errorf("%s: class sum %d != steps %d", name, sum, s.Steps)
				}
				if s.ChoicePoints != ref.Stats.ChoicePoints || s.TrailUndos != ref.Stats.TrailUndos {
					t.Errorf("%s: cp=%d undo=%d, legacy cp=%d undo=%d",
						name, s.ChoicePoints, s.TrailUndos, ref.Stats.ChoicePoints, ref.Stats.TrailUndos)
				}
			}
		})
	}
}

// TestEngineMetricsTotals drives an engine from many goroutines and checks
// the exact-aggregation contract: Metrics().Totals equals the Add-sum of
// every per-run Stats the engine returned, and the outcome counters balance.
// Under `go test -race` this also exercises the lock-free recording paths.
func TestEngineMetricsTotals(t *testing.T) {
	prog := mustLoad(t, `
		nrev([], []).
		nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
		app([], Y, Y).
		app([H|T], Y, [H|Z]) :- app(T, Y, Z).
		main :- nrev([1,2,3,4,5,6,7,8,9,10], R), write(R), nl.
	`)
	eng := NewEngine(prog)
	const workers, perWorker = 8, 16

	var mu sync.Mutex
	var want Stats
	var okRuns, failRuns int64

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				opts := RunOptions{}
				if w == 0 && i%4 == 3 {
					opts.MaxSteps = 10 // force ErrStepLimit on some runs
				}
				res, err := eng.Run(context.Background(), opts)
				mu.Lock()
				if err != nil {
					if !errors.Is(err, ErrStepLimit) {
						t.Errorf("unexpected error: %v", err)
					}
					failRuns++
				} else {
					want.Add(&res.Stats)
					okRuns++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	m := eng.Metrics()
	if m.Totals != want {
		t.Errorf("Metrics().Totals = %+v\nwant Add-sum     %+v", m.Totals, want)
	}
	if m.Started != okRuns+failRuns {
		t.Errorf("started=%d, want %d", m.Started, okRuns+failRuns)
	}
	if m.Succeeded != okRuns {
		t.Errorf("succeeded=%d, want %d", m.Succeeded, okRuns)
	}
	var failed int64
	for _, n := range m.Faults {
		failed += n
	}
	if failed != failRuns {
		t.Errorf("failed=%d (%v), want %d", failed, m.Faults, failRuns)
	}
	if m.InFlight != 0 {
		t.Errorf("in_flight=%d after quiescence", m.InFlight)
	}
	if m.PoolGets != m.Started || m.PoolMisses > m.PoolGets {
		t.Errorf("pool gets=%d misses=%d started=%d", m.PoolGets, m.PoolMisses, m.Started)
	}
	var runsSeen int64
	for _, c := range m.StepsPerRun.Counts {
		runsSeen += c
	}
	if runsSeen != okRuns {
		t.Errorf("steps histogram holds %d runs, want %d", runsSeen, okRuns)
	}

	// Rejected runs are counted without touching started/in-flight.
	if _, err := eng.Run(context.Background(), RunOptions{MaxSteps: -1}); err == nil {
		t.Fatal("negative MaxSteps accepted")
	}
	m = eng.Metrics()
	if m.Rejected != 1 || m.Started != okRuns+failRuns {
		t.Errorf("rejected=%d started=%d after invalid options", m.Rejected, m.Started)
	}
}

// TestMetricsExposition checks the two export formats: the snapshot
// marshals to JSON (the expvar shape) and WriteTo emits Prometheus text
// with the expected series.
func TestMetricsExposition(t *testing.T) {
	prog := mustLoad(t, `main :- write(hi), nl.`)
	eng := NewEngine(prog)
	if _, err := eng.Run(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(eng.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"started":1`)) {
		t.Errorf("snapshot JSON missing started counter: %s", data)
	}

	var buf bytes.Buffer
	if _, err := eng.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"symbol_queries_started_total 1",
		"symbol_queries_succeeded_total 1",
		"symbol_queries_in_flight 0",
		"symbol_pool_gets_total 1",
		"symbol_steps_total ",
		"symbol_run_latency_seconds_bucket{le=\"+Inf\"} 1",
		"symbol_run_steps_count 1",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("Prometheus text missing %q:\n%s", series, text)
		}
	}

	eng.PublishExpvar("symbol_test_engine_" + t.Name())
}

// TestRunContextAPI exercises Program.Run, the context-first one-off run,
// under tracing, area sizes, step budgets and cancellation.
func TestRunContextAPI(t *testing.T) {
	prog := mustLoad(t, `
		color(red). color(green). color(blue).
		main :- color(C), C = blue, write(C), nl.
	`)

	res, err := prog.Run(context.Background(), RunOptions{TraceEvents: 64, HeapWords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || res.Output != "blue\n" {
		t.Fatalf("ok=%v output=%q", res.Succeeded, res.Output)
	}
	if res.Stats.Steps == 0 || res.Stats.Steps != res.Steps {
		t.Errorf("stats steps=%d result steps=%d", res.Stats.Steps, res.Steps)
	}
	if res.ChoicePoints == 0 {
		t.Errorf("backtracking program created no choice points: %+v", res.Stats)
	}
	if len(res.Events) == 0 {
		t.Fatal("TraceEvents: 64 produced no events")
	}
	var pushes, halts int
	for _, e := range res.Events {
		switch e.Kind {
		case EvChoicePush:
			pushes++
		case EvHalt:
			halts++
		}
	}
	if pushes == 0 || halts != 1 {
		t.Errorf("events: %d cp_push, %d halt, want >0 and 1", pushes, halts)
	}
	if got := res.String(); !strings.Contains(got, "memory") || !strings.Contains(got, "ok=true") {
		t.Errorf("Result.String() = %q, want mix table", got)
	}

	// MaxSteps surfaces the usual typed fault, alongside a record that
	// keeps the events traced up to it.
	if _, err := prog.Run(context.Background(), RunOptions{MaxSteps: 3}); !errors.Is(err, ErrStepLimit) {
		t.Errorf("MaxSteps: 3: err=%v, want ErrStepLimit", err)
	}
	faulted, err := prog.Run(context.Background(), RunOptions{MaxSteps: 40, TraceEvents: 64})
	if !errors.Is(err, ErrStepLimit) || faulted == nil || faulted.Succeeded || len(faulted.Events) == 0 {
		t.Errorf("traced MaxSteps: 40: err=%v, record %+v, want ErrStepLimit with the events so far", err, faulted)
	}

	// A cancelled context aborts the run (polled every CheckInterval steps,
	// so use a program that cannot finish on its own).
	spin := mustLoad(t, `loop :- loop. main :- loop.`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spin.Run(ctx, RunOptions{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("cancelled ctx: err=%v, want ErrCanceled", err)
	}

	// Tracing must not perturb the numbers the fast path reports.
	plain, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if classCounts(&plain.Stats) != classCounts(&res.Stats) || plain.Steps != res.Steps {
		t.Errorf("traced run diverged: %+v vs %+v", res.Stats, plain.Stats)
	}
}

// TestSimulateContextStats checks that Scheduled.SimulateWith, the VLIW
// path, carries the same Stats record: cycles populated, classes summing
// to issued ops, and the mix table rendering through SimResult.String.
func TestSimulateContextStats(t *testing.T) {
	prog := mustLoad(t, `
		app([], Y, Y).
		app([H|T], Y, [H|Z]) :- app(T, Y, Z).
		main :- app([1,2,3], [4], R), write(R), nl.
	`)
	sched, err := prog.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.SimulateWith(context.Background(), RunOptions{TraceEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Succeeded {
		t.Fatalf("simulation failed: %+v", sim)
	}
	if sim.Stats.Cycles != sim.Cycles || sim.Cycles == 0 {
		t.Errorf("stats cycles=%d result cycles=%d", sim.Stats.Cycles, sim.Cycles)
	}
	if sim.Stats.Steps != sim.Ops {
		t.Errorf("stats steps=%d != issued ops %d", sim.Stats.Steps, sim.Ops)
	}
	if sum := sim.MemOps + sim.ALUOps + sim.MoveOps + sim.ControlOps + sim.SysOps; sum != sim.Stats.Steps {
		t.Errorf("class sum %d != steps %d", sum, sim.Stats.Steps)
	}
	if len(sim.Events) == 0 {
		t.Error("TraceEvents: 32 produced no VLIW events")
	}
	if got := sim.String(); !strings.Contains(got, "memory") {
		t.Errorf("SimResult.String() = %q, want mix table", got)
	}
}

// TestSimulateFaultKeepsEvents checks that a VLIW run that faults still
// returns the events it traced up to the fault, as Program.Run does on the
// sequential side.
func TestSimulateFaultKeepsEvents(t *testing.T) {
	prog := mustLoad(t, `
		app([], Y, Y).
		app([H|T], Y, [H|Z]) :- app(T, Y, Z).
		main :- app([1,2,3,4,5,6,7,8], [9], R), write(R), nl.
	`)
	sched, err := prog.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.SimulateWith(context.Background(), RunOptions{MaxCycles: 30, TraceEvents: 5})
	if !errors.Is(err, ErrCycleLimit) || sim == nil || sim.Succeeded || len(sim.Events) == 0 {
		t.Errorf("Scheduled.SimulateWith: err=%v, record %+v, want ErrCycleLimit with the events so far", err, sim)
	}
}

// TestScheduleWithOptions checks the functional-option scheduling entry
// point against the struct form it wraps.
func TestScheduleWithOptions(t *testing.T) {
	prog := mustLoad(t, `
		app([], Y, Y).
		app([H|T], Y, [H|Z]) :- app(T, Y, Z).
		main :- app([1,2], [3], R), write(R), nl.
	`)
	a, err := prog.ScheduleWith(DefaultMachine(3), WithBasicBlocksOnly())
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.ScheduleWith(DefaultMachine(3), WithBasicBlocksOnly())
	if err != nil {
		t.Fatal(err)
	}
	if a.Words() != b.Words() || a.Ops() != b.Ops() {
		t.Errorf("ScheduleWith: %d words/%d ops, Schedule: %d words/%d ops",
			a.Words(), a.Ops(), b.Words(), b.Ops())
	}
}
