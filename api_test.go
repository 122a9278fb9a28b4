package symbol

import (
	"context"
	"strings"
	"testing"
)

const apiSrc = `
len([], 0).
len([_|T], N) :- len(T, M), N is M+1.
main :- len([a,b,c,d], N), write(N), nl.
`

func TestSeqCyclesConsistency(t *testing.T) {
	prog := mustLoad(t, apiSrc)
	res, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := prog.SeqCycles()
	if err != nil {
		t.Fatal(err)
	}
	// Every ICI costs 1 or 2 cycles sequentially.
	if seq < res.Steps || seq > 2*res.Steps {
		t.Errorf("seq cycles %d out of [steps, 2*steps] = [%d, %d]", seq, res.Steps, 2*res.Steps)
	}
	// Cached: second call returns the same value.
	seq2, err := prog.SeqCycles()
	if err != nil || seq2 != seq {
		t.Error("SeqCycles must be deterministic")
	}
}

func TestAnalyzeFields(t *testing.T) {
	prog := mustLoad(t, apiSrc)
	a, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sum := a.Mix.ALU + a.Mix.Memory + a.Mix.Move + a.Mix.Control + a.Mix.Sys
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("mix fractions sum to %f", sum)
	}
	if a.Mix.Total <= 0 {
		t.Error("empty mix")
	}
	if a.AmdahlLimit <= 1 {
		t.Errorf("Amdahl limit %f", a.AmdahlLimit)
	}
	if a.Branches.DynBranches <= 0 || a.Branches.StaticBranches <= 0 {
		t.Error("branch report empty")
	}
	if len(a.Branches.Histogram) != 20 {
		t.Errorf("histogram bins %d", len(a.Branches.Histogram))
	}
	if a.Branches.AvgFaultyPrediction < 0 || a.Branches.AvgFaultyPrediction > 0.5 {
		t.Errorf("P_fp %f out of range", a.Branches.AvgFaultyPrediction)
	}
}

func TestScheduledAccessors(t *testing.T) {
	prog := mustLoad(t, apiSrc)
	sched, err := prog.ScheduleWith(DefaultMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Words() <= 0 || sched.Ops() <= 0 {
		t.Error("empty schedule")
	}
	if sched.Ops() < sched.Words() {
		t.Error("more words than ops on a 2-unit machine?")
	}
	if sched.AvgTraceLen() <= 0 {
		t.Error("trace stats missing")
	}
	if !strings.Contains(sched.Listing(), "trace") {
		t.Error("listing missing trace markers")
	}
	if sched.VLIW() == nil {
		t.Error("VLIW accessor nil")
	}
	sim, err := sched.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if sim.String() == "" || !sim.Succeeded {
		t.Error("sim result broken")
	}
	if sim.Words+sim.Bubble > sim.Cycles {
		t.Errorf("cycle accounting: words %d + bubbles %d > cycles %d",
			sim.Words, sim.Bubble, sim.Cycles)
	}
}

func TestMachineConstructors(t *testing.T) {
	if DefaultMachine(3).Units != 3 {
		t.Error("DefaultMachine")
	}
	if UnboundedMachine().Units < 1000 {
		t.Error("UnboundedMachine")
	}
	if BAMMachine().Units != 1 || BAMMachine().BranchBubble != 0 {
		t.Error("BAMMachine")
	}
	prog := mustLoad(t, apiSrc)
	if _, err := prog.ScheduleWith(MachineConfig{}); err == nil {
		t.Error("zero config must be rejected")
	}
}

func TestSpeedupHelper(t *testing.T) {
	if Speedup(100, 50) != 2.0 {
		t.Error("speedup math")
	}
	if Speedup(100, 0) != 0 {
		t.Error("division by zero guard")
	}
}

func TestOptionsMaxSteps(t *testing.T) {
	prog := mustLoad(t, `
loop :- loop.
main :- loop.
`, WithCompileOptions(Options{ArithChecks: true, MaxSteps: 1000}))
	if _, err := prog.Run(context.Background(), RunOptions{}); err == nil {
		t.Error("step limit must abort the infinite loop")
	}
}

func TestDefaultOptionsValues(t *testing.T) {
	o := DefaultOptions()
	if !o.ArithChecks {
		t.Error("arith checks default on")
	}
}
