package exec

import (
	"testing"
	"time"

	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/word"
)

// newRuntime makes a Runtime over a fresh state for a program whose atom
// table holds the ball atoms the translator interns. throws says whether
// the program has a throw routine the executor can deliver balls to.
func newRuntime(t *testing.T, throws bool) *Runtime {
	t.Helper()
	p := mkProg([]ic.Inst{{Op: ic.Halt}})
	for _, a := range []string{"resource_error", "heap", "zero_divisor", "foo"} {
		p.Atoms.Intern(a)
	}
	st := ic.NewState()
	t.Cleanup(st.Free)
	rt := &Runtime{}
	rt.Init(p, st, ic.Layout{HeapWords: 64}, throws)
	return rt
}

func TestRuntimeLimits(t *testing.T) {
	rt := newRuntime(t, true)
	if rt.Limit[ic.RegionUnknown] != ^uint64(0) {
		t.Errorf("unannotated stores must never fault: limit %#x", rt.Limit[ic.RegionUnknown])
	}
	if got := rt.Limit[ic.RegionHeap]; got != ic.HeapBase+64 {
		t.Errorf("heap limit = %#x, want %#x", got, ic.HeapBase+64)
	}
	if got, want := rt.Limit[ic.RegionBall], uint64(ic.BallBase+ic.BallSize); got != want {
		t.Errorf("ball limit = %#x, want %#x", got, want)
	}
}

// TestRaiseCaught: a catchable fault in a program with a throw routine
// becomes a resource_error ball, is counted raised and caught, dirties the
// ball pages and stays pending.
func TestRaiseCaught(t *testing.T) {
	rt := newRuntime(t, true)
	if !rt.Raise(fault.HeapOverflow) {
		t.Fatal("heap overflow with a throw routine must be caught")
	}
	if rt.raised != 1 || rt.caught != 1 || rt.pending != fault.HeapOverflow {
		t.Errorf("raised %d caught %d pending %v, want 1 1 heap overflow", rt.raised, rt.caught, rt.pending)
	}
	if rt.Mem[ic.BallBase] != word.MakeInt(1) {
		t.Error("ball flag not armed")
	}
	if rt.St.DirtyPages() == 0 {
		t.Error("ball pages not touched: Reset would miss the ball")
	}
	if err := rt.Write(rt.Mem[ic.BallBase+1]); err != nil || rt.Out.String() != "resource_error(heap)" {
		t.Errorf("ball = %q (%v), want resource_error(heap)", rt.Out.String(), err)
	}

	if !rt.Raise(fault.ZeroDivide) {
		t.Fatal("zero divisor with a throw routine must be caught")
	}
	if rt.raised != 2 || rt.caught != 2 || rt.pending != fault.ZeroDivide {
		t.Errorf("raised %d caught %d pending %v after a second fault", rt.raised, rt.caught, rt.pending)
	}
}

// TestRaiseHard: a catchable kind without a throw routine, and a kind that
// is never catchable, are hard faults: counted raised, not caught, and
// nothing pending.
func TestRaiseHard(t *testing.T) {
	cases := []struct {
		name   string
		throws bool
		k      fault.Kind
	}{
		{"catchable without throw routine", false, fault.HeapOverflow},
		{"step limit", true, fault.StepLimit},
		{"deadline", true, fault.Deadline},
		{"canceled", true, fault.Canceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := newRuntime(t, c.throws)
			if rt.Raise(c.k) {
				t.Fatalf("%v must be a hard fault", c.k)
			}
			if rt.raised != 1 || rt.caught != 0 || rt.pending != fault.None {
				t.Errorf("raised %d caught %d pending %v, want 1 0 none", rt.raised, rt.caught, rt.pending)
			}
			if rt.Mem[ic.BallBase] != 0 {
				t.Error("a hard fault wrote a ball")
			}
		})
	}
}

// TestUncaught: a converted fault still pending outranks the ball it
// became; a user throw (BallPut) clears it, so the ball itself is
// reported.
func TestUncaught(t *testing.T) {
	rt := newRuntime(t, true)
	rt.Raise(fault.HeapOverflow)
	if k, reason := rt.Uncaught(); k != fault.HeapOverflow || reason != "heap overflow" {
		t.Errorf("Uncaught = %v %q, want the converted heap overflow", k, reason)
	}

	foo, _ := rt.atoms.Lookup("foo")
	if err := rt.BallPut(word.Make(word.Atom, uint64(foo))); err != nil {
		t.Fatal(err)
	}
	if rt.pending != fault.None {
		t.Errorf("BallPut left %v pending", rt.pending)
	}
	if k, reason := rt.Uncaught(); k != fault.UncaughtThrow || reason != "uncaught exception: foo" {
		t.Errorf("Uncaught = %v %q, want uncaught exception: foo", k, reason)
	}
}

// TestPoll: a passed deadline is reported before a cancellation.
func TestPoll(t *testing.T) {
	rt := newRuntime(t, true)
	if k := rt.Poll(); k != fault.None {
		t.Errorf("Poll with nothing set = %v", k)
	}
	done := make(chan struct{})
	close(done)
	rt.Interrupt = done
	if k := rt.Poll(); k != fault.Canceled {
		t.Errorf("Poll after cancel = %v, want canceled", k)
	}
	rt.Deadline = time.Now().Add(-time.Second)
	if k := rt.Poll(); k != fault.Deadline {
		t.Errorf("Poll past the deadline and canceled = %v, want deadline", k)
	}
	rt.Interrupt = nil
	rt.Deadline = time.Now().Add(time.Hour)
	if k := rt.Poll(); k != fault.None {
		t.Errorf("Poll before the deadline = %v", k)
	}
}

// TestSysBuiltins: the output builtins append to Out, and Compare returns
// the standard-order result as an integer word.
func TestSysBuiltins(t *testing.T) {
	rt := newRuntime(t, true)
	foo, _ := rt.atoms.Lookup("foo")
	if err := rt.Write(word.Make(word.Atom, uint64(foo))); err != nil {
		t.Fatal(err)
	}
	rt.Nl()
	rt.WriteCode(word.MakeInt('x'))
	if got := rt.Out.String(); got != "foo\nx" {
		t.Errorf("Out = %q, want %q", got, "foo\nx")
	}
	for _, c := range []struct {
		a, b word.W
		want int64
	}{
		{word.MakeInt(1), word.MakeInt(2), -1},
		{word.MakeInt(2), word.MakeInt(2), 0},
		{word.Make(word.Atom, uint64(foo)), word.MakeInt(2), 1},
	} {
		v, err := rt.Compare(c.a, c.b)
		if err != nil || v != word.MakeInt(c.want) {
			t.Errorf("Compare(%v, %v) = %v %v, want %d", c.a, c.b, v, err, c.want)
		}
	}
}

// TestMixStats: dispatch counts expand into classes, superinstructions
// count both constituents less the fixups, and the marked opcodes are the
// choice-point and trail-undo counters.
func TestMixStats(t *testing.T) {
	rt := newRuntime(t, true)
	rt.Raise(fault.HeapOverflow)
	var x Mix
	x.Disp[XLd] = 3
	x.Disp[XMovCP] = 2
	x.Disp[XLdUndo] = 5
	x.Disp[XFStAdd] = 4
	x.SkipStAdd = 1
	x.Disp[XFCMovR] = 6
	x.CMovMoves = 2
	s := rt.MixStats(42, &x, time.Millisecond)
	if s.Steps != 42 || s.Wall != time.Millisecond {
		t.Errorf("steps %d wall %v", s.Steps, s.Wall)
	}
	if s.MemOps != 3+5+4 || s.ALUOps != 4-1 || s.MoveOps != 2+2 || s.ControlOps != 6 {
		t.Errorf("mix mem %d alu %d move %d control %d, want 12 3 4 6", s.MemOps, s.ALUOps, s.MoveOps, s.ControlOps)
	}
	if s.ChoicePoints != 2 || s.TrailUndos != 5 {
		t.Errorf("choice points %d trail undos %d, want 2 5", s.ChoicePoints, s.TrailUndos)
	}
	if s.FaultsRaised != 1 || s.FaultsCaught != 1 {
		t.Errorf("faults raised %d caught %d, want 1 1", s.FaultsRaised, s.FaultsCaught)
	}
}
