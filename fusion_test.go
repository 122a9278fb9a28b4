package symbol

import (
	"errors"
	"testing"
	"time"

	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/fault"
	"symbol/internal/ic"
)

// The predecoded interpreter loop (internal/emu/run.go) and the
// superinstruction fusion pass (internal/exec) must be observationally
// indistinguishable from the legacy reference interpreter: same Status,
// Output and Steps (in original-ICI units), and the same typed fault at the
// same pc under every injected resource configuration. (Profiles come from
// the legacy interpreter alone; TestStatsParity cross-checks the predecoded
// dispatch counts against them.) These tests run all three execution modes — legacy, plain
// predecoded (NoFuse), and fused — over the full benchmark suite and a
// fault matrix, comparing results exactly.

// emuModes are the three sequential execution modes under test.
var emuModes = []struct {
	name string
	set  func(*emu.Options)
}{
	{"legacy", func(o *emu.Options) { o.Legacy = true }},
	{"nofuse", func(o *emu.Options) { o.NoFuse = true }},
	{"fused", func(o *emu.Options) {}},
}

// runMode executes prog's IC under one mode with the given base options.
func runMode(t *testing.T, prog *Program, base emu.Options, mode func(*emu.Options)) (*emu.Result, error) {
	t.Helper()
	opts := base
	mode(&opts)
	return emu.Run(prog.icp, opts)
}

// TestFusionDifferentialBenchmarks runs every benchmark in all three modes
// and requires identical observable results: fusion must not shift a single
// step out of original-ICI units. Every program's fused stream must also be
// allocated at exactly its final size, and shrink the code by one op per
// superinstruction.
func TestFusionDifferentialBenchmarks(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog := mustLoad(t, b.Source)
			xp := exec.Of(prog.icp)
			if ops := xp.Fused.Ops; cap(ops) != len(ops) {
				t.Errorf("fused stream has len %d but cap %d", len(ops), cap(ops))
			}
			pairs := 0
			for _, n := range xp.Stats.Pairs {
				pairs += n
			}
			if xp.Stats.PlainOps-xp.Stats.FusedOps != pairs {
				t.Errorf("PlainOps %d - FusedOps %d != %d pairs", xp.Stats.PlainOps, xp.Stats.FusedOps, pairs)
			}
			if b.Heavy && testing.Short() {
				t.Skip("heavy benchmark (short mode)")
			}
			ref, err := runMode(t, prog, emu.Options{}, emuModes[0].set)
			if err != nil {
				t.Fatalf("legacy run: %v", err)
			}
			if ref.Output != b.Expect {
				t.Fatalf("legacy output %q, benchmark expects %q", ref.Output, b.Expect)
			}
			for _, m := range emuModes[1:] {
				res, err := runMode(t, prog, emu.Options{}, m.set)
				if err != nil {
					t.Fatalf("%s run: %v", m.name, err)
				}
				if res.Status != ref.Status || res.Output != ref.Output || res.Steps != ref.Steps {
					t.Fatalf("%s diverged: status %d/%d steps %d/%d output %q/%q",
						m.name, res.Status, ref.Status, res.Steps, ref.Steps, res.Output, ref.Output)
				}
			}
		})
	}
}

// TestFusionStatic sanity-checks the fusion pass over the compiled
// benchmarks: superinstructions must actually form on BAM-shaped code, and
// the stream must shrink accordingly (FusedOps + fused pair count ==
// PlainOps, since every pair replaces exactly two plain ops).
func TestFusionStatic(t *testing.T) {
	b, err := benchprog.Get("queens_8")
	if err != nil {
		t.Fatal(err)
	}
	prog := mustLoad(t, b.Source)
	xp := exec.Of(prog.icp)
	pairs := 0
	for _, n := range xp.Stats.Pairs {
		pairs += n
	}
	if pairs == 0 {
		t.Fatal("fusion pass formed no superinstructions on queens_8")
	}
	if xp.Stats.FusedOps+pairs != xp.Stats.PlainOps {
		t.Fatalf("stream accounting: %d fused ops + %d pairs != %d plain ops",
			xp.Stats.FusedOps, pairs, xp.Stats.PlainOps)
	}
	// Every fused op must carry Width 2 and sit on a non-jump-target pc+1.
	for i := range xp.Fused.Ops {
		op := &xp.Fused.Ops[i]
		if op.Code.Fused() && op.Width != 2 {
			t.Fatalf("fused op %s at pc %d has width %d", op.Code, op.PC, op.Width)
		}
	}
}

// fusionFaultPrograms exercise distinct fault paths: heap pressure from
// list building, env pressure from deep recursion, and a catch/3 barrier
// that converts a resource fault into a recovery (so the redirect path
// through $throwunwind runs under fusion too).
var fusionFaultPrograms = map[string]string{
	"heap": `
build(0, []).
build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
main :- build(5000, L), L = [_|_].
`,
	"env": `
sum(0, 0).
sum(N, S) :- N > 0, M is N - 1, sum(M, T), S is T + 1.
main :- sum(5000, S), S > 0.
`,
	"caught": `
build(0, []).
build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
main :- catch(build(100000, _), resource_error(E), (write(caught), write(E), nl)).
`,
}

// fusionInjections is the resource-injection matrix. Every entry must
// produce the identical outcome — same typed fault kind, same pc, same
// rendered error — in all three modes.
var fusionInjections = []struct {
	name string
	opts emu.Options
}{
	{"full", emu.Options{}},
	{"tiny-heap", emu.Options{Layout: ic.Layout{HeapWords: 2048}}},
	{"tiny-env", emu.Options{Layout: ic.Layout{EnvWords: 512}}},
	{"tiny-cp", emu.Options{Layout: ic.Layout{CPWords: 64}}},
	{"tiny-trail", emu.Options{Layout: ic.Layout{TrailWords: 128}}},
	{"steps-1", emu.Options{MaxSteps: 1}},
	{"steps-100", emu.Options{MaxSteps: 100}},
	{"steps-101", emu.Options{MaxSteps: 101}},
	{"steps-4096", emu.Options{MaxSteps: 4096}},
	{"expired-deadline", emu.Options{Deadline: time.Unix(1, 0)}},
}

// TestFusionFaultMatrix runs the program × injection matrix in all three
// modes and requires the identical outcome: same success/output on clean
// runs, and on faulting runs the same fault kind at the same pc (compared
// via the full rendered error, which embeds pc, instruction and reason).
func TestFusionFaultMatrix(t *testing.T) {
	for name, src := range fusionFaultPrograms {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := mustLoad(t, src)
			for _, inj := range fusionInjections {
				ref, refErr := runMode(t, prog, inj.opts, emuModes[0].set)
				for _, m := range emuModes[1:] {
					res, err := runMode(t, prog, inj.opts, m.set)
					switch {
					case refErr == nil && err == nil:
						if res.Status != ref.Status || res.Output != ref.Output || res.Steps != ref.Steps {
							t.Fatalf("%s/%s diverged: status %d/%d steps %d/%d",
								inj.name, m.name, res.Status, ref.Status, res.Steps, ref.Steps)
						}
					case refErr != nil && err != nil:
						if err.Error() != refErr.Error() {
							t.Fatalf("%s/%s error diverged:\nlegacy: %v\n%s: %v",
								inj.name, m.name, refErr, m.name, err)
						}
					default:
						t.Fatalf("%s/%s: legacy err=%v, %s err=%v",
							inj.name, m.name, refErr, m.name, err)
					}
				}
			}
		})
	}
}

// TestFusionCancellation pins the hoisted poll's two guarantees. First, a
// run that is cancelled (or past its deadline) before it starts must abort
// at step 0 in every mode — the predecoded loop polls once on entry
// precisely so batch drivers can rely on pre-cancelled queries never
// touching machine state. Second, cancelling a run mid-flight must abort it
// promptly: the back-edge countdown polls at least once every
// fault.CheckInterval backward transfers, so an interrupt is honoured after
// a bounded amount of further work rather than at the next convenient
// Halt.
func TestFusionCancellation(t *testing.T) {
	b, err := benchprog.Get("queens_8")
	if err != nil {
		t.Fatal(err)
	}
	prog := mustLoad(t, b.Source)

	closed := make(chan struct{})
	close(closed)
	for _, m := range emuModes {
		_, err := runMode(t, prog, emu.Options{Interrupt: closed}, m.set)
		if !errors.Is(err, fault.ErrCanceled) {
			t.Fatalf("%s: pre-cancelled run: got %v, want ErrCanceled", m.name, err)
		}
		var e *emu.Error
		if !errors.As(err, &e) || e.PC != prog.icp.Entry {
			t.Fatalf("%s: pre-cancelled run aborted at pc %v, want entry %d", m.name, err, prog.icp.Entry)
		}
	}

	// Mid-flight cancellation: the run must return ErrCanceled well before
	// it could have finished the query. The wall-clock bound is generous —
	// the poll cadence (every CheckInterval back-edges) answers in
	// microseconds — so this cannot flake on a loaded machine.
	for _, m := range emuModes {
		ch := make(chan struct{})
		done := make(chan error, 1)
		go func(set func(*emu.Options)) {
			_, err := runMode(t, prog, emu.Options{Interrupt: ch}, set)
			done <- err
		}(m.set)
		time.Sleep(5 * time.Millisecond)
		close(ch)
		select {
		case err := <-done:
			// The query may legitimately finish before the cancel lands;
			// anything else must be a prompt ErrCanceled.
			if err != nil && !errors.Is(err, fault.ErrCanceled) {
				t.Fatalf("%s: mid-flight cancel: got %v", m.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: run ignored cancellation", m.name)
		}
	}
}
