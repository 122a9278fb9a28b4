package symbol

import (
	"context"
	"errors"
	"testing"
	"time"

	"symbol/internal/vliw"
)

// simCycle returns the cycle at which a VLIW run stopped, from the
// simulator error under err.
func simCycle(t *testing.T, err error) int64 {
	t.Helper()
	var se *vliw.SimError
	if !errors.As(err, &se) {
		t.Fatalf("err %v carries no *vliw.SimError", err)
	}
	return se.Cycle
}

// TestSimulateWith covers Scheduled.SimulateWith, the one VLIW run path:
// context cancellation during and before a run, a context deadline, and
// repeat runs on recycled machine states.
func TestSimulateWith(t *testing.T) {
	t.Run("cancel-mid-run", func(t *testing.T) {
		// tak takes about 2.5M cycles (~90 ms, far longer under -race), so a
		// cancel 2 ms in lands mid-run. A run that still beats the timer on
		// a loaded machine proves nothing, and the attempt is repeated.
		sched, err := mustLoad(t, benchMust(t, "tak")).ScheduleWith(DefaultMachine(3))
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 0; attempt < 5; attempt++ {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(2*time.Millisecond, cancel)
			sim, err := sched.SimulateWith(ctx, RunOptions{TraceEvents: 64})
			timer.Stop()
			cancel()
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err=%v, want ErrCanceled", err)
			}
			if sim == nil || sim.Succeeded || len(sim.Events) == 0 {
				t.Fatalf("record %+v, want a failed run with the events traced so far", sim)
			}
			if c := simCycle(t, err); c == 0 {
				t.Fatalf("canceled at cycle 0, want mid-run")
			}
			return
		}
		t.Fatal("every run finished before its cancel fired")
	})

	prog := mustLoad(t, engineSrc)
	sched, err := prog.ScheduleWith(DefaultMachine(3))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("canceled-before-start", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sim, err := sched.SimulateWith(ctx, RunOptions{TraceEvents: 64})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err=%v, want ErrCanceled", err)
		}
		if c := simCycle(t, err); c != 0 || sim == nil || len(sim.Events) != 0 {
			t.Fatalf("stopped at cycle %d with record %+v, want cycle 0 and no events", c, sim)
		}
	})

	t.Run("ctx-deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, err := sched.SimulateWith(ctx, RunOptions{}); !errors.Is(err, ErrDeadline) {
			t.Fatalf("err=%v, want ErrDeadline", err)
		}
	})

	t.Run("pooled-repeat", func(t *testing.T) {
		want, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := sched.SimulateWith(context.Background(), RunOptions{})
			if err != nil {
				t.Fatalf("SimulateWith #%d: %v", i, err)
			}
			if got.Succeeded != want.Succeeded || got.Output != want.Output || got.Cycles != want.Cycles {
				t.Fatalf("SimulateWith #%d: got %v, want %v", i, got, want)
			}
		}
	})
}
