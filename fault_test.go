package symbol

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"symbol/internal/fault"
	"symbol/internal/faultsim"
)

// runBoth executes src on the sequential emulator and the scheduled VLIW
// simulator under the same resource options, returning both errors.
func runBoth(t *testing.T, src string, opts RunOptions) (seqErr, simErr error) {
	t.Helper()
	prog := mustLoad(t, src)
	_, seqErr = prog.Run(context.Background(), opts)
	sched, err := prog.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	_, simErr = sched.SimulateWith(context.Background(), opts)
	return seqErr, simErr
}

// TestFaultKinds drives each memory area into its configured limit on both
// executors and checks the typed sentinel. The programs are the faultsim
// corpus entries whose stressed area is known.
func TestFaultKinds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts RunOptions
		want error
	}{
		{
			name: "heap overflow",
			src: `
build(0, []).
build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
main :- build(3000, L), L = [_|_].
`,
			opts: RunOptions{HeapWords: 4096},
			want: ErrHeapOverflow,
		},
		{
			name: "env overflow",
			src: `
sum(0, 0).
sum(N, S) :- N > 0, M is N - 1, sum(M, T), S is T + 1.
main :- sum(3000, S), S > 0.
`,
			opts: RunOptions{EnvWords: 1024},
			want: ErrEnvOverflow,
		},
		{
			name: "cp overflow",
			src: `
alt(_).
alt(_) :- fail.
spine(0).
spine(N) :- N > 0, alt(N), M is N - 1, spine(M).
main :- spine(2500).
`,
			opts: RunOptions{CPWords: 1024},
			want: ErrCPOverflow,
		},
		{
			name: "trail overflow",
			src: `
bind([]).
bind([X|T]) :- X = a, bind(T).
mk(0, []).
mk(N, [_|T]) :- N > 0, M is N - 1, mk(M, T).
flip(_).
flip(_) :- fail.
main :- mk(1500, L), flip(x), bind(L).
`,
			opts: RunOptions{TrailWords: 512},
			want: ErrTrailOverflow,
		},
		{
			name: "pdl overflow",
			src: `
mk(0, leaf).
mk(N, t(L, N)) :- N > 0, M is N - 1, mk(M, L).
main :- mk(200, A), mk(200, B), A = B.
`,
			opts: RunOptions{PDLWords: 64},
			want: ErrPDLOverflow,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqErr, simErr := runBoth(t, tc.src, tc.opts)
			if !errors.Is(seqErr, tc.want) {
				t.Errorf("sequential: got %v, want %v", seqErr, tc.want)
			}
			if !errors.Is(simErr, tc.want) {
				t.Errorf("vliw: got %v, want %v", simErr, tc.want)
			}
		})
	}
}

// TestFaultZeroDivide: an uncaught zero divisor is the typed arithmetic
// fault on the sequential emulator; with catch/3 it is recoverable on both
// executors (which also exercises the VLIW SysFault redirect path).
func TestFaultZeroDivide(t *testing.T) {
	prog := mustLoad(t, `main :- X is 1 // 0, X > 0.`)
	if _, err := prog.Run(context.Background(), RunOptions{}); !errors.Is(err, ErrZeroDivide) {
		t.Errorf("sequential uncaught: got %v, want %v", err, ErrZeroDivide)
	}

	src := `main :- catch((X is 1 // 0, write(X)), zero_divisor, (write(caught), nl)).`
	caught := mustLoad(t, src)
	res, err := caught.Run(context.Background(), RunOptions{})
	if err != nil || !res.Succeeded || res.Output != "caught\n" {
		t.Fatalf("sequential catch: res=%+v err=%v", res, err)
	}
	sched, err := caught.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := sched.Simulate()
	if err != nil || !sim.Succeeded || sim.Output != "caught\n" {
		t.Fatalf("vliw catch: res=%+v err=%v", sim, err)
	}
}

// TestFaultBudgets exhausts the step and cycle budgets on a terminating
// program and checks the typed (uncatchable) budget faults.
func TestFaultBudgets(t *testing.T) {
	src := `
count(0).
count(N) :- N > 0, M is N - 1, count(M).
main :- count(100000).
`
	seqErr, simErr := runBoth(t, src, RunOptions{MaxSteps: 500, MaxCycles: 500})
	if !errors.Is(seqErr, ErrStepLimit) {
		t.Errorf("sequential: got %v, want %v", seqErr, ErrStepLimit)
	}
	if !errors.Is(simErr, ErrCycleLimit) {
		t.Errorf("vliw: got %v, want %v", simErr, ErrCycleLimit)
	}
}

// TestFaultDeadline: a wall-clock deadline in the past trips immediately on
// both executors.
func TestFaultDeadline(t *testing.T) {
	src := `
count(0).
count(N) :- N > 0, M is N - 1, count(M).
main :- count(100000).
`
	opts := RunOptions{Deadline: time.Now().Add(-time.Second)}
	seqErr, simErr := runBoth(t, src, opts)
	if !errors.Is(seqErr, ErrDeadline) {
		t.Errorf("sequential: got %v, want %v", seqErr, ErrDeadline)
	}
	if !errors.Is(simErr, ErrDeadline) {
		t.Errorf("vliw: got %v, want %v", simErr, ErrDeadline)
	}
}

// TestFaultUncaughtThrow checks the typed sentinel for a ball no catch/3
// frame wants.
func TestFaultUncaughtThrow(t *testing.T) {
	prog := mustLoad(t, `main :- throw(unhandled(42)).`)
	if _, err := prog.Run(context.Background(), RunOptions{}); !errors.Is(err, ErrUncaughtThrow) {
		t.Errorf("got %v, want %v", err, ErrUncaughtThrow)
	}
}

// TestFaultCatchRoundTrip is the acceptance scenario: a program that
// catches resource_error(heap) under a shrunken heap completes with the
// recovery answer, identically on both executors.
func TestFaultCatchRoundTrip(t *testing.T) {
	src := `
build(0, []).
build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
main :- catch((build(3000, L), L = [_|_], write(full), nl),
              resource_error(heap),
              (write(recovered), nl)).
`
	prog := mustLoad(t, src)

	// Default layout: the build fits and the goal path answers "full".
	res, err := prog.Run(context.Background(), RunOptions{})
	if err != nil || !res.Succeeded || res.Output != "full\n" {
		t.Fatalf("sequential default: res=%+v err=%v", res, err)
	}

	// Shrunken heap: the overflow converts to resource_error(heap), the
	// stack unwinds to the catch frame, and the recovery goal answers.
	opts := RunOptions{HeapWords: 4096}
	res, err = prog.Run(context.Background(), opts)
	if err != nil || !res.Succeeded || res.Output != "recovered\n" {
		t.Fatalf("sequential shrunken: res=%+v err=%v", res, err)
	}

	sched, err := prog.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := sched.Simulate()
	if err != nil || !sim.Succeeded || sim.Output != "full\n" {
		t.Fatalf("vliw default: res=%+v err=%v", sim, err)
	}
	sim, err = sched.SimulateWith(context.Background(), opts)
	if err != nil || !sim.Succeeded || sim.Output != "recovered\n" {
		t.Fatalf("vliw shrunken: res=%+v err=%v", sim, err)
	}
}

// TestFaultDifferential is the randomized injection harness: every corpus
// program is run under random resource configurations through both
// executors, which must agree on the outcome — same success and output, or
// the same fault kind (step and cycle budgets count as the same logical
// budget fault). The seed is fixed for reproducibility.
func TestFaultDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 8
	for _, p := range faultsim.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			u, err := faultsim.Compile(p.Src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}

			// Fault-free baseline.
			seq, par, err := u.Differential(faultsim.Opts{})
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			if seq.Kind != fault.None || !seq.Succeeded {
				t.Fatalf("baseline sequential run not clean: %+v", seq)
			}
			if !faultsim.Agree(seq, par) {
				t.Fatalf("baseline disagreement: seq=%+v vliw=%+v", seq, par)
			}

			for i := 0; i < trials; i++ {
				opts := randomOpts(rng)
				seq, par, err := u.Differential(opts)
				if err != nil {
					t.Fatalf("trial %d schedule: %v", i, err)
				}
				if !faultsim.Agree(seq, par) {
					t.Errorf("trial %d opts=%+v:\n  sequential: kind=%v ok=%v err=%v\n  vliw:       kind=%v ok=%v err=%v",
						i, opts, seq.Kind, seq.Succeeded, seq.Err, par.Kind, par.Succeeded, par.Err)
				}
			}
		})
	}
}

// randomOpts injects either shrunken memory areas or a tight budget — never
// both, so the expected fault kind is well defined across executors (a tiny
// step budget could otherwise race a tiny area on one path only).
func randomOpts(rng *rand.Rand) faultsim.Opts {
	var o faultsim.Opts
	// The sequential dispatch mode is orthogonal to the injected resources;
	// rotating it here runs the injection matrix over all three cores.
	switch rng.Intn(3) {
	case 0:
		o.Legacy = true
	case 1:
		o.NoFuse = true
	}
	if rng.Intn(4) == 0 {
		// Budget injection: far below any corpus program's cost on either
		// executor, so both must trip their meter.
		b := 100 + rng.Int63n(400)
		o.MaxSteps, o.MaxCycles = b, b
		return o
	}
	shrink := func(def int64) int64 {
		switch rng.Intn(3) {
		case 0:
			return 0 // default size
		case 1:
			return def / 2
		default:
			// Small but above the red-zone floor every program needs to
			// start up (query construction, first frames).
			return 512 + rng.Int63n(4096)
		}
	}
	o.Layout.HeapWords = shrink(1 << 14)
	o.Layout.EnvWords = shrink(1 << 13)
	o.Layout.CPWords = shrink(1 << 13)
	o.Layout.TrailWords = shrink(1 << 12)
	o.Layout.PDLWords = shrink(1 << 10)
	return o
}

// FuzzFaultTinyLimits feeds random area sizes and budgets through the
// public API for every corpus program: whatever the configuration, the API
// must return (possibly a typed fault error), never panic.
func FuzzFaultTinyLimits(f *testing.F) {
	progs := faultsim.Programs()
	f.Add(int64(1), uint16(64), uint16(64), uint16(64), uint16(64), uint16(16), int64(0))
	f.Add(int64(2), uint16(1), uint16(1), uint16(1), uint16(1), uint16(1), int64(50))
	f.Add(int64(3), uint16(4096), uint16(512), uint16(512), uint16(256), uint16(64), int64(100000))
	compiled := make([]*Program, len(progs))
	for i, p := range progs {
		prog := mustLoad(f, p.Src)
		compiled[i] = prog
	}
	f.Fuzz(func(t *testing.T, pick int64, heap, env, cp, trail, pdl uint16, steps int64) {
		prog := compiled[int(uint64(pick)%uint64(len(compiled)))]
		opts := RunOptions{
			MaxSteps:   steps,
			HeapWords:  int64(heap),
			EnvWords:   int64(env),
			CPWords:    int64(cp),
			TrailWords: int64(trail),
			PDLWords:   int64(pdl),
		}
		if _, err := prog.Run(context.Background(), opts); err != nil {
			// Must be a classified fault, not an untyped internal error.
			var fp *fault.Fault
			if !errors.As(err, &fp) {
				t.Fatalf("untyped error escaped the fault model: %v", err)
			}
		}
	})
}
