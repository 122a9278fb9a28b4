package experiments

import (
	"strings"
	"sync"
	"testing"
)

// A small, fast subset for unit-testing the experiment machinery.
var fast = []string{"qsort", "serialise", "times10"}

func TestFigure2(t *testing.T) {
	r := NewRunner()
	f2, err := r.Figure2Mix(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) != len(fast) {
		t.Fatalf("rows %d", len(f2.Rows))
	}
	// Fractions sum to ~1 and memory is in the paper's neighbourhood.
	var sum float64
	for _, v := range f2.Average {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f", sum)
	}
	if f2.MemoryFraction() < 0.2 || f2.MemoryFraction() > 0.5 {
		t.Errorf("memory fraction %.3f out of plausible range", f2.MemoryFraction())
	}
	if !strings.Contains(f2.Render(), "average") {
		t.Error("render incomplete")
	}
}

func TestFigure3(t *testing.T) {
	r := NewRunner()
	f3, err := r.Figure3Amdahl(fast)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Limit < 2 || f3.Limit > 5 {
		t.Errorf("Amdahl limit %.2f implausible", f3.Limit)
	}
	last := f3.Points[len(f3.Points)-1]
	if last.Overlapped > f3.Limit+1e-9 {
		t.Error("overlapped curve exceeds its asymptote")
	}
	if !strings.Contains(f3.Render(), "Amdahl") {
		t.Error("render incomplete")
	}
}

func TestTable1(t *testing.T) {
	r := NewRunner()
	t1, err := r.Table1Compaction(fast)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Avg.TraceSpeedup <= t1.Avg.BBSpeedup {
		t.Errorf("traces (%.2f) must beat basic blocks (%.2f)",
			t1.Avg.TraceSpeedup, t1.Avg.BBSpeedup)
	}
	if t1.Avg.TraceLen <= t1.Avg.BBLen {
		t.Error("traces must be longer than basic blocks")
	}
	if !strings.Contains(t1.Render(), "average") {
		t.Error("render incomplete")
	}
}

func TestTable2(t *testing.T) {
	r := NewRunner()
	t2, err := r.Table2Branches(fast)
	if err != nil {
		t.Fatal(err)
	}
	if t2.AvgPfp <= 0 || t2.AvgPfp >= 0.5 {
		t.Errorf("avg P_fp %.3f out of range", t2.AvgPfp)
	}
	var mass float64
	for _, v := range t2.Histogram {
		mass += v
	}
	if mass < 0.99 || mass > 1.01 {
		t.Errorf("histogram mass %f", mass)
	}
	// The paper's key observation: most branches are near-deterministic.
	if t2.Histogram[0] < 0.3 {
		t.Errorf("expected dominant near-zero bin, got %f", t2.Histogram[0])
	}
	for _, row := range t2.Rows {
		// Backward branches are NOT 90% taken (the 90/50 rule fails).
		if row.BackwardTaken > 0.7 {
			t.Errorf("%s: backward-taken %.2f looks like numeric code", row.Name, row.BackwardTaken)
		}
	}
	if !strings.Contains(t2.Render(), "Figure 4") {
		t.Error("render incomplete")
	}
}

func TestTable3(t *testing.T) {
	r := NewRunner()
	t3, err := r.Table3Sweep(fast, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t3.Rows {
		if row.Speedups[0] > row.Speedups[1]+0.05 {
			t.Errorf("%s: more units slower (%v)", row.Name, row.Speedups)
		}
		if row.Speedups[0] < 1 {
			t.Errorf("%s: 1-unit slower than sequential", row.Name)
		}
	}
	if !strings.Contains(t3.Render(), "BAM") || !strings.Contains(t3.RenderFigure6(), "Amdahl") {
		t.Error("render incomplete")
	}
}

func TestTable4(t *testing.T) {
	r := NewRunner()
	t4, err := r.Table4Absolute([]string{"reverse", "qsort"})
	if err != nil {
		t.Fatal(err)
	}
	if t4.NreverseMLIPS <= 0 {
		t.Error("NREVERSE MLIPS missing")
	}
	for _, row := range t4.Rows {
		if row.MeasuredMs <= 0 {
			t.Errorf("%s: non-positive time", row.Name)
		}
	}
	if !strings.Contains(t4.Render(), "MLIPS") {
		t.Error("render incomplete")
	}
}

func TestTable5(t *testing.T) {
	r := NewRunner()
	t5, err := r.Table5Relative(fast)
	if err != nil {
		t.Fatal(err)
	}
	if t5.AvgSym3 <= 1 || t5.AvgBAM <= 1 {
		t.Errorf("speed-ups must exceed 1: sym3 %.2f bam %.2f", t5.AvgSym3, t5.AvgBAM)
	}
	if t5.AvgSym3 <= t5.AvgBAM {
		t.Errorf("trace scheduling (%.2f) must beat the BAM-like machine (%.2f)",
			t5.AvgSym3, t5.AvgBAM)
	}
	if !strings.Contains(t5.Render(), "average") {
		t.Error("render incomplete")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner()
	// Concurrent first gets of one name share a single compile.
	got := make([]*entry, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := r.get("qsort")
			if err != nil {
				t.Error(err)
			}
			got[i] = e
		}()
	}
	wg.Wait()
	for _, e := range got[1:] {
		if e != got[0] {
			t.Error("runner must cache entries")
		}
	}
	if _, err := r.get("nosuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
	// A failing program fails the whole table, whatever its position.
	if _, err := r.Figure2Mix([]string{"qsort", "nosuch", "times10"}); err == nil {
		t.Error("a table over an unknown benchmark must error")
	}
}

func TestSuiteNames(t *testing.T) {
	if len(SuiteNames()) != 14 {
		t.Errorf("suite rows %d", len(SuiteNames()))
	}
	if len(Table2Names()) != 16 {
		t.Errorf("table 2 rows %d", len(Table2Names()))
	}
}

func TestSymbol3Config(t *testing.T) {
	c := Symbol3Config()
	if c.Units != 3 || c.MemLatency != 3 || c.BranchBubble != 2 {
		t.Errorf("prototype config %+v", c)
	}
}
