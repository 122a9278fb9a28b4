package symbol

import (
	"context"
	"testing"

	"symbol/internal/benchprog"
)

// Ablation configurations must all preserve program semantics; their only
// legitimate effect is on cycle counts.

func TestAblationRegionDisambiguation(t *testing.T) {
	src := benchMust(t, "qsort")
	prog := mustLoad(t, src)
	seq, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultMachine(3)
	oracle := DefaultMachine(3)
	oracle.DisambiguateRegions = true

	var cycles [2]int64
	for i, conf := range []MachineConfig{base, oracle} {
		sched, err := prog.ScheduleWith(conf)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if sim.Output != seq.Output {
			t.Fatalf("config %d diverged", i)
		}
		cycles[i] = sim.Cycles
	}
	t.Logf("qsort 3-unit: conservative %d cycles, region-oracle %d cycles (%.1f%% gain)",
		cycles[0], cycles[1], 100*(1-float64(cycles[1])/float64(cycles[0])))
	if cycles[1] > cycles[0] {
		t.Error("an oracle disambiguator cannot make the schedule worse")
	}
}

func TestAblationTailDuplication(t *testing.T) {
	src := benchMust(t, "serialise")
	prog := mustLoad(t, src)
	seq, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var lens [2]float64
	var cycles [2]int64
	for i, opts := range []ScheduleOptions{{}, {NoTailDuplication: true}} {
		sched, err := prog.ScheduleWith(DefaultMachine(3), WithScheduleOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if sim.Output != seq.Output {
			t.Fatalf("opts %d diverged", i)
		}
		lens[i] = sched.AvgTraceLen()
		cycles[i] = sim.Cycles
	}
	t.Logf("with dup: len %.1f, %d cycles; without: len %.1f, %d cycles",
		lens[0], cycles[0], lens[1], cycles[1])
	if lens[0] <= lens[1] {
		t.Error("tail duplication must lengthen the average trace")
	}
	if cycles[0] > cycles[1] {
		t.Error("tail duplication must not slow the hot path down")
	}
}

func TestAblationArithChecks(t *testing.T) {
	b, err := benchprog.Get("tak")
	if err != nil {
		t.Fatal(err)
	}
	checked := mustLoad(t, b.Source, WithCompileOptions(Options{ArithChecks: true}))
	unchecked := mustLoad(t, b.Source, WithCompileOptions(Options{ArithChecks: false}))
	r1, err := checked.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := unchecked.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output || !r1.Succeeded || !r2.Succeeded {
		t.Fatal("arith-check ablation changed the answer")
	}
	if r2.Steps >= r1.Steps {
		t.Errorf("mode-analysis model must execute fewer ICIs: %d vs %d", r2.Steps, r1.Steps)
	}
	t.Logf("tak: %d ICIs with checks, %d without (perfect mode analysis)", r1.Steps, r2.Steps)
}

func TestAblationTraceThreshold(t *testing.T) {
	// Raising the probability threshold shortens traces but must keep
	// correctness.
	src := benchMust(t, "queens_8")
	prog := mustLoad(t, src)
	seq, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{1, 2, 4} {
		sched, err := prog.ScheduleWith(DefaultMachine(3), WithScheduleOptions(ScheduleOptions{MaxTraceBlocks: max}))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if sim.Output != seq.Output {
			t.Fatalf("MaxTraceBlocks=%d diverged", max)
		}
	}
}

func TestAblationSplitFormats(t *testing.T) {
	// The prototype's two instruction formats (§5.1) reduce parallelism
	// but never change semantics.
	src := benchMust(t, "serialise")
	prog := mustLoad(t, src)
	seq, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unified := DefaultMachine(3)
	split := DefaultMachine(3)
	split.SplitFormats = true
	var cycles [2]int64
	for i, conf := range []MachineConfig{unified, split} {
		sched, err := prog.ScheduleWith(conf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.VLIW().Validate(); err != nil {
			t.Fatal(err)
		}
		sim, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if sim.Output != seq.Output {
			t.Fatalf("config %d diverged", i)
		}
		cycles[i] = sim.Cycles
	}
	t.Logf("serialise 3-unit: unified %d cycles, split formats %d cycles (+%.1f%%)",
		cycles[0], cycles[1], 100*(float64(cycles[1])/float64(cycles[0])-1))
	if cycles[1] < cycles[0] {
		t.Error("a format restriction cannot speed the machine up")
	}
}
