package emu

import (
	"testing"
	"time"

	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/word"
)

// suspendProg is the smallest suspendable program: one solution, then the
// fail routine reports exhaustion. FailPC makes the machine suspend at the
// Halt 0 instead of finishing.
func suspendProg() *ic.Program {
	p := mkProg([]ic.Inst{
		{Op: ic.Jmp, Target: 2},                      // 0: entry, over the fail routine
		{Op: ic.Halt, Imm: 1},                        // 1: $fail — no alternatives left
		{Op: ic.MovI, D: t0, Word: word.MakeInt(42)}, // 2
		{Op: ic.Halt, Imm: 0},                        // 3: a solution
	})
	p.FailPC = 1
	return p
}

// resumeModes are the three dispatch families plus profiling; suspend/resume
// must behave identically on all of them.
var resumeModes = []struct {
	name string
	set  func(*Options)
}{
	{"fused", func(*Options) {}},
	{"nofuse", func(o *Options) { o.NoFuse = true }},
	{"legacy", func(o *Options) { o.Legacy = true }},
	{"profiled", func(o *Options) { o.Profile = true }},
}

// checkExpectSum requires a profiled run's Expect counts to sum to the
// cumulative step count: the profile spans every segment so far.
func checkExpectSum(t *testing.T, res *Result, want int64) {
	t.Helper()
	var sum int64
	for _, n := range res.Profile.Expect {
		sum += n
	}
	if sum != want {
		t.Fatalf("profile Expect sums to %d, want %d", sum, want)
	}
}

// TestResumeLifecycle drives the phase machine through a full
// run → suspend → resume → exhausted cycle in every dispatch mode,
// checking cumulative step accounting (profile included) and the phase
// guards.
func TestResumeLifecycle(t *testing.T) {
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := Options{MaxSteps: 1000}
			mode.set(&opts)
			m := New(suspendProg(), opts)

			if _, err := m.Resume(); err == nil {
				t.Fatal("Resume before Run must fail")
			}
			r1, err := m.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r1.Status != 0 || r1.Steps != 3 {
				t.Fatalf("first segment: status %d steps %d, want 0/3", r1.Status, r1.Steps)
			}
			if opts.Profile {
				checkExpectSum(t, r1, 3)
			}
			if !m.More() {
				t.Fatal("machine not suspended after Halt 0 with a fail routine")
			}
			if _, err := m.Run(); err == nil {
				t.Fatal("second Run on a suspended machine must fail")
			}
			if st := m.Stats(); st.Steps != 3 {
				t.Fatalf("Stats between segments: steps %d, want 3", st.Steps)
			}

			r2, err := m.Resume()
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if r2.Status != 1 || r2.Steps != 4 {
				t.Fatalf("second segment: status %d steps %d, want 1/4 (cumulative)", r2.Status, r2.Steps)
			}
			if opts.Profile {
				checkExpectSum(t, r2, 4)
			}
			if m.More() {
				t.Fatal("machine still suspended after exhaustion")
			}
			if _, err := m.Resume(); err == nil {
				t.Fatal("Resume after exhaustion must fail")
			}
			st := m.Stats()
			if st.Steps != 4 {
				t.Fatalf("final Stats: steps %d, want 4", st.Steps)
			}
			if sum := st.MemOps + st.ALUOps + st.MoveOps + st.ControlOps + st.SysOps; sum != 4 {
				t.Fatalf("op-class counts sum to %d, want 4", sum)
			}
		})
	}
}

// TestResumeDeadlineWhileSuspended: a deadline that expires while the
// machine is parked must abort the resume at step 0, in every mode — the
// predecoded loop polls on segment entry and the legacy path mirrors it.
func TestResumeDeadlineWhileSuspended(t *testing.T) {
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := Options{MaxSteps: 1000}
			mode.set(&opts)
			m := New(suspendProg(), opts)
			if _, err := m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			m.SetDeadline(time.Now().Add(-time.Second))
			_, err := m.Resume()
			if fault.KindOf(err) != fault.Deadline {
				t.Fatalf("Resume past deadline: err %v, want deadline fault", err)
			}
			if st := m.Stats(); st.Steps != 3 {
				t.Fatalf("aborted resume executed steps: %d, want 3", st.Steps)
			}
		})
	}
}

// TestResumeInterruptWhileSuspended: closing the interrupt channel while
// parked cancels the next resume the same way.
func TestResumeInterruptWhileSuspended(t *testing.T) {
	for _, mode := range resumeModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := Options{MaxSteps: 1000}
			mode.set(&opts)
			m := New(suspendProg(), opts)
			if _, err := m.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			ch := make(chan struct{})
			close(ch)
			m.SetInterrupt(ch)
			_, err := m.Resume()
			if fault.KindOf(err) != fault.Canceled {
				t.Fatalf("Resume after interrupt: err %v, want canceled fault", err)
			}
		})
	}
}

// TestNoFailPCNeverSuspends: a program without a fail routine finishes in
// one segment even when it halts with status 0.
func TestNoFailPCNeverSuspends(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.MovI, D: t0, Word: word.MakeInt(1)},
		{Op: ic.Halt, Imm: 0},
	})
	m := New(p, Options{MaxSteps: 100})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 0 {
		t.Fatalf("status %d", res.Status)
	}
	if m.More() {
		t.Fatal("machine suspended without a fail routine")
	}
	if _, err := m.Resume(); err == nil {
		t.Fatal("Resume must fail on a finished machine")
	}
}
