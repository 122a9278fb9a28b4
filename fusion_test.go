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
// allocated at exactly its final size, and shrink the code by Width-1 ops
// per superinstruction.
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
			if saved := fusedSavings(xp); xp.Stats.PlainOps-xp.Stats.FusedOps != saved {
				t.Errorf("PlainOps %d - FusedOps %d != %d, the sum of Width-1 over fused ops",
					xp.Stats.PlainOps, xp.Stats.FusedOps, saved)
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

// fusedSavings is the sum of Width-1 over the fused stream's
// superinstructions: the ops fusion saved.
func fusedSavings(xp *exec.Program) int {
	saved := 0
	for i := range xp.Fused.Ops {
		if op := &xp.Fused.Ops[i]; op.Code.Fused() {
			saved += int(op.Width) - 1
		}
	}
	return saved
}

// TestFusionStatic sanity-checks the fusion pass over the compiled
// benchmarks: superinstructions must actually form on BAM-shaped code, the
// per-code counts must match the stream, and the stream must shrink
// accordingly (FusedOps + the sum of Width-1 over fused ops == PlainOps).
func TestFusionStatic(t *testing.T) {
	b, err := benchprog.Get("queens_8")
	if err != nil {
		t.Fatal(err)
	}
	prog := mustLoad(t, b.Source)
	xp := exec.Of(prog.icp)
	var supers [exec.NumCodes]int
	for i := range xp.Fused.Ops {
		op := &xp.Fused.Ops[i]
		if !op.Code.Fused() {
			continue
		}
		supers[op.Code]++
		want := uint8(2)
		switch op.Code {
		case exec.XFDeref:
			want = 5
		case exec.XFMovDeref:
			want = 6
		}
		if op.Width != want {
			t.Fatalf("fused op %s at pc %d has width %d, want %d", op.Code, op.PC, op.Width, want)
		}
	}
	if supers != xp.Stats.Supers {
		t.Fatalf("stream superinstruction counts %v != Stats.Supers %v", supers, xp.Stats.Supers)
	}
	if supers[exec.XFStSt] == 0 || supers[exec.XFDeref]+supers[exec.XFMovDeref] == 0 {
		t.Fatal("fusion pass formed no store pairs or dereference ops on queens_8")
	}
	if saved := fusedSavings(xp); xp.Stats.FusedOps+saved != xp.Stats.PlainOps {
		t.Fatalf("stream accounting: %d fused ops + %d saved != %d plain ops",
			xp.Stats.FusedOps, saved, xp.Stats.PlainOps)
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

// TestFusionCancellation pins the hoisted poll's guarantees. First, a run
// that is cancelled (or past its deadline) before it starts must abort at
// step 0 in every mode — the predecoded loop polls once on entry precisely
// so batch drivers can rely on pre-cancelled queries never touching machine
// state. Second, cancelling a run mid-flight must abort it promptly: the
// fuel countdown polls every fault.CheckInterval steps, so an interrupt is
// honoured after a bounded amount of further work rather than at the next
// convenient Halt. Third, that holds inside one long op: a program that
// spends its time dereferencing a long Ref chain, each chase one fused op
// of many thousand steps, stops in the body of the dereference loop.
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

	chain := mustLoad(t, refChain)
	xp := exec.Of(chain.icp)
	// inChase reports whether pc is in the body of a fused dereference
	// loop: past its head, which the op's dispatch may poll at.
	inChase := func(pc int) bool {
		for _, op := range xp.Fused.Ops {
			if op.Code == exec.XFDeref || op.Code == exec.XFMovDeref {
				if end := int(op.PC) + int(op.Width); pc > end-5 && pc < end {
					return true
				}
			}
		}
		return false
	}
	for _, m := range emuModes {
		// Building the chain takes a few hundred thousand steps, so the
		// cancel waits longer on each try. A try that stops in the build, or
		// on the loop head (a fifth of the chase's steps), is not counted.
		var e *emu.Error
		for wait := 20 * time.Millisecond; wait < 2*time.Second; wait *= 2 {
			ch := make(chan struct{})
			done := make(chan error, 1)
			go func(set func(*emu.Options)) {
				_, err := runMode(t, chain, emu.Options{Interrupt: ch}, set)
				done <- err
			}(m.set)
			time.Sleep(wait)
			close(ch)
			select {
			case err := <-done:
				if !errors.Is(err, fault.ErrCanceled) || !errors.As(err, &e) {
					t.Fatalf("%s: cancel in a dereference chase: got %v", m.name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: run ignored cancellation in a dereference chase", m.name)
			}
			if inChase(e.PC) {
				break
			}
		}
		if !inChase(e.PC) {
			t.Fatalf("%s: cancelled chase stopped at pc %d, outside every dereference loop body", m.name, e.PC)
		}
	}
}

// refChain binds 5 000 fresh variables into one Ref chain (each link is
// bound on the way back out of the recursion, so every binding lands on a
// variable still unbound), then tests the far end with var/1 forever:
// every test dereferences the whole chain, 25 000 steps in one fused op.
const refChain = `
vars(0, []).
vars(N, [_|T]) :- N > 0, M is N - 1, vars(M, T).
link([_]).
link([A,B|T]) :- link([B|T]), A = B.
lastcell([X], [X]).
lastcell([_,Y|T], C) :- lastcell([Y|T], C).
spin(C) :- C = [X], var(X), spin(C).
main :- vars(5000, L), link(L), lastcell(L, C), spin(C).
`
