package symbol

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

const loopSrc = `
loop :- loop.
main :- loop.
`

// TestRunAllMidBatchCancel cancels a batch while it is executing: every
// slot must still settle — a Result for runs that finished before the
// cancel, a typed ErrCanceled for runs cut short or never started — and no
// worker goroutine may outlive the call.
func TestRunAllMidBatchCancel(t *testing.T) {
	prog := mustLoad(t, loopSrc)
	eng := NewEngine(prog)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	const batch = 16
	runs := make([]BatchRun, batch)

	// Cancel once the batch is demonstrably mid-flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(5 * time.Second)
		for eng.met.InFlight() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	out := eng.RunBatch(ctx, runs)
	wg.Wait()

	if len(out) != batch {
		t.Fatalf("got %d results for %d runs", len(out), batch)
	}
	var canceled int
	for i, r := range out {
		switch {
		case r.Err != nil:
			if r.Result != nil {
				t.Errorf("slot %d: both Result and Err set", i)
			}
			if !errors.Is(r.Err, ErrCanceled) {
				t.Errorf("slot %d: err=%v, want ErrCanceled", i, r.Err)
			}
			canceled++
		case r.Result == nil:
			t.Errorf("slot %d: neither Result nor Err", i)
		}
	}
	// The program loops forever, so nothing can have completed: the whole
	// batch must have been cut short or never started.
	if canceled != batch {
		t.Errorf("canceled %d of %d slots", canceled, batch)
	}

	idleCtx, idleCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer idleCancel()
	if err := eng.WaitIdle(idleCtx); err != nil {
		t.Errorf("WaitIdle after batch: %v", err)
	}
	if got := eng.met.InFlight(); got != 0 {
		t.Errorf("in-flight after settled batch = %d", got)
	}

	// Workers are gone once RunBatch returns (allow the runtime a moment to
	// reap exiting goroutines under -race).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestWaitIdle covers both sides of the drain primitive: while a run is in
// flight WaitIdle honours its context, and once the run is cancelled it
// returns promptly.
func TestWaitIdle(t *testing.T) {
	prog := mustLoad(t, loopSrc)
	eng := NewEngine(prog)
	runCtx, stopRun := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := eng.Run(runCtx, RunOptions{})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("run: err=%v, want ErrCanceled", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for eng.met.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	shortCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := eng.WaitIdle(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitIdle with work in flight: %v, want DeadlineExceeded", err)
	}

	stopRun()
	<-done
	idleCtx, idleCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer idleCancel()
	if err := eng.WaitIdle(idleCtx); err != nil {
		t.Errorf("WaitIdle after cancel: %v", err)
	}
}

// TestRunAllUncancelledCompletes is the control: without cancellation every
// slot gets a Result and no slot gets an error.
func TestRunAllUncancelledCompletes(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	eng := NewEngine(prog)
	out := eng.RunBatch(context.Background(), make([]BatchRun, 8))
	for i, r := range out {
		if r.Err != nil {
			t.Errorf("slot %d: %v", i, r.Err)
		}
		if r.Result == nil {
			t.Errorf("slot %d: nil Result", i)
		}
	}
}

// TestPublishExpvarIdempotent is the regression test for the duplicate-name
// panic: re-publishing the same engine under the same name is a no-op, a
// second engine claiming the name gets a typed error, and neither path may
// reach expvar.Publish's duplicate panic.
func TestPublishExpvarIdempotent(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	name := "symbol_test_expvar_" + t.Name()
	a, b := NewEngine(prog), NewEngine(prog)

	if err := a.PublishExpvar(name); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if err := a.PublishExpvar(name); err != nil {
		t.Fatalf("re-publish by owner: %v", err)
	}
	err := b.PublishExpvar(name)
	var taken *ErrExpvarTaken
	if !errors.As(err, &taken) {
		t.Fatalf("conflicting publish: err=%v, want *ErrExpvarTaken", err)
	}
	if taken.Name != name {
		t.Errorf("conflict names %q", taken.Name)
	}
	// The conflict must not have displaced the owner: publishing again
	// still succeeds for a, still fails for b.
	if err := a.PublishExpvar(name); err != nil {
		t.Errorf("owner after conflict: %v", err)
	}
	if err := b.PublishExpvar(name); err == nil {
		t.Error("loser retried and won the taken name")
	}
}

// TestPublishExpvarConcurrent hammers one name from many goroutines across
// two engines: exactly one engine may own it, nobody may panic.
func TestPublishExpvarConcurrent(t *testing.T) {
	prog := mustLoad(t, engineSrc)
	name := "symbol_test_expvar_" + t.Name()
	engines := []*Engine{NewEngine(prog), NewEngine(prog)}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = engines[i%2].PublishExpvar(name)
		}(i)
	}
	wg.Wait()
	var ok int
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	// All eight calls from the winning engine return nil; all eight from
	// the loser return the typed conflict.
	if ok != 8 {
		t.Errorf("%d publishes succeeded, want exactly the one owner's 8", ok)
	}
}
