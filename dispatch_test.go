package symbol

import (
	"context"
	"testing"
)

// TestWithDispatchRuns: each RunOptions.Dispatch mode of Program.Run
// actually executes and agrees on the answer.
func TestWithDispatchRuns(t *testing.T) {
	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2])"))
	ref, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dispatch{
		DispatchAuto, DispatchLegacy, DispatchNoFuse, DispatchFused,
	} {
		res, err := prog.Run(context.Background(), RunOptions{Dispatch: d})
		if err != nil {
			t.Errorf("%v: %v", d, err)
			continue
		}
		if res.Output != ref.Output || res.Steps != ref.Steps {
			t.Errorf("%v: output %q steps %d, want %q / %d",
				d, res.Output, res.Steps, ref.Output, ref.Steps)
		}
	}
}

// TestDispatchNamesAndAlias: each mode's String is its name, and the
// deprecated DispatchThreaded alias runs exactly like DispatchFused.
func TestDispatchNamesAndAlias(t *testing.T) {
	for _, tc := range []struct {
		d    Dispatch
		name string
	}{
		{DispatchAuto, "auto"},
		{DispatchLegacy, "legacy"},
		{DispatchNoFuse, "nofuse"},
		{DispatchFused, "fused"},
	} {
		if got := tc.d.String(); got != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.d, got, tc.name)
		}
	}

	prog := mustLoad(t, streamKB, WithGoal("app(X, Y, [1,2])"))
	e := NewEngine(prog)
	ctx := context.Background()
	want, err := e.Run(ctx, RunOptions{Dispatch: DispatchFused})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(ctx, RunOptions{Dispatch: DispatchThreaded})
	if err != nil {
		t.Fatal(err)
	}
	ws, gs := want.Stats, got.Stats
	ws.Wall, gs.Wall = 0, 0
	if got.Succeeded != want.Succeeded || got.Output != want.Output || got.Steps != want.Steps || gs != ws {
		t.Errorf("DispatchThreaded run %+v differs from DispatchFused run %+v", got, want)
	}
}

// TestNoFuseFirstUseConcurrent: the plain stream is built on the first
// nofuse run, so concurrent first runs race to build it. Each must give
// the fused run's output and steps (and, under -race, no data race).
func TestNoFuseFirstUseConcurrent(t *testing.T) {
	prog := mustLoad(t, benchMust(t, "queens_8"))
	e := NewEngine(prog)
	ctx := context.Background()
	want, err := e.Run(ctx, RunOptions{Dispatch: DispatchFused})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]BatchRun, 8)
	for i := range runs {
		runs[i].Opts = RunOptions{Dispatch: DispatchNoFuse}
	}
	for i, g := range e.RunBatch(ctx, runs) {
		if g.Err != nil {
			t.Fatalf("nofuse run %d: %v", i, g.Err)
		}
		if g.Result.Output != want.Output || g.Result.Steps != want.Steps {
			t.Fatalf("nofuse run %d: %q in %d steps, fused %q in %d steps",
				i, g.Result.Output, g.Result.Steps, want.Output, want.Steps)
		}
	}
}
