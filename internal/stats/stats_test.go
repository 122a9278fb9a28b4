package stats

import (
	"math"
	"testing"
	"testing/quick"

	"symbol/internal/emu"
	"symbol/internal/ic"
	"symbol/internal/term"
)

func mkProg(code []ic.Inst) *ic.Program {
	return &ic.Program{Code: code, Atoms: term.NewTable()}
}

func TestComputeMix(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.Ld, D: ic.FirstTemp, A: ic.RegH},                // memory
		{Op: ic.Add, D: ic.FirstTemp, A: ic.RegH, HasImm: true}, // alu
		{Op: ic.Mov, D: ic.FirstTemp, A: ic.RegH},               // move
		{Op: ic.Jmp},  // control
		{Op: ic.Halt}, // control, never executed
	})
	prof := &emu.Profile{Expect: []int64{10, 20, 30, 40, 0}, Taken: make([]int64, 5)}
	m := ComputeMix(p, prof)
	if m.Total != 100 {
		t.Fatalf("total %d", m.Total)
	}
	if m.Fraction(ic.ClassMemory) != 0.1 || m.Fraction(ic.ClassALU) != 0.2 ||
		m.Fraction(ic.ClassMove) != 0.3 || m.Fraction(ic.ClassControl) != 0.4 {
		t.Errorf("fractions wrong: %+v", m)
	}
}

func TestAverageMixEqualWeight(t *testing.T) {
	var a, b Mix
	a.Counts[ic.ClassMemory] = 1
	a.Total = 1 // 100% memory
	b.Counts[ic.ClassALU] = 1
	b.Total = 1 // 100% alu
	avg := AverageMix([]Mix{a, b})
	if avg[ic.ClassMemory] != 0.5 || avg[ic.ClassALU] != 0.5 {
		t.Errorf("got %v", avg)
	}
	if AverageMix(nil) != [ic.NumClasses]float64{} {
		t.Error("empty average must be zero")
	}
}

func TestAmdahl(t *testing.T) {
	// The paper's headline numbers: fraction 0.68 enhanced infinitely →
	// speed-up 1/0.32 ≈ 3.1 (the paper rounds to 3.0).
	if got := AmdahlLimit(0.68); math.Abs(got-3.125) > 1e-9 {
		t.Errorf("limit = %f", got)
	}
	if got := Amdahl(0.68, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("no enhancement must give 1, got %f", got)
	}
	// Monotone non-decreasing in the enhancement.
	f := func(e float64) bool {
		e = math.Abs(e)
		if e < 1 {
			e = 1
		}
		if e > 1e6 {
			return true
		}
		return Amdahl(0.68, e+1) >= Amdahl(0.68, e)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(AmdahlLimit(1.0), 1) {
		t.Error("fully enhanced limit must be infinite")
	}
}

func TestAmdahlCurves(t *testing.T) {
	pts := AmdahlCurves(0.32, []float64{1, 2, 4, 1000})
	if len(pts) != 4 {
		t.Fatal("point count")
	}
	// The overlapped curve saturates at 1/memFraction.
	last := pts[len(pts)-1]
	if math.Abs(last.Overlapped-1/0.32) > 1e-9 {
		t.Errorf("overlapped asymptote %f", last.Overlapped)
	}
	// Overlapped dominates separate everywhere.
	for _, p := range pts {
		if p.Overlapped+1e-12 < p.Separate {
			t.Errorf("overlap must dominate at e=%f", p.Enhancement)
		}
	}
}

func TestFaultyPrediction(t *testing.T) {
	cases := map[float64]float64{0: 0, 0.1: 0.1, 0.5: 0.5, 0.9: 0.1, 1: 0}
	for p, want := range cases {
		if got := FaultyPrediction(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("Pfp(%f) = %f, want %f", p, got, want)
		}
	}
	f := func(p float64) bool {
		p = math.Mod(math.Abs(p), 1)
		v := FaultyPrediction(p)
		return v >= 0 && v <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBranchStats(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.BrCmp, A: ic.RegH, Target: 0}, // taken 90/100 → Pfp 0.1
		{Op: ic.BrTag, A: ic.RegH, Target: 0}, // taken 50/100 → Pfp 0.5
		{Op: ic.Jmp},                          // not conditional
		{Op: ic.Halt},
	})
	prof := &emu.Profile{
		Expect: []int64{100, 100, 50, 1},
		Taken:  []int64{90, 50, 0, 0},
	}
	bs := ComputeBranchStats(p, prof, 10)
	if bs.StaticBranches != 2 || bs.Executions != 200 {
		t.Fatalf("got %+v", bs)
	}
	if math.Abs(bs.AvgPfp-0.3) > 1e-9 {
		t.Errorf("AvgPfp = %f, want 0.3", bs.AvgPfp)
	}
	if math.Abs(bs.AvgTaken-0.7) > 1e-9 {
		t.Errorf("AvgTaken = %f", bs.AvgTaken)
	}
	var sum float64
	for _, v := range bs.Histogram {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram mass %f", sum)
	}
	// Pfp ≈0.1 lands around bin 2 of 10 (width 0.05; floating point may
	// put it one bin lower), 0.5 in the last bin.
	if bs.Histogram[1]+bs.Histogram[2] != 0.5 || bs.Histogram[9] != 0.5 {
		t.Errorf("histogram %v", bs.Histogram)
	}
}

func TestNinetyFifty(t *testing.T) {
	p := mkProg([]ic.Inst{
		{Op: ic.BrCmp, A: ic.RegH, Target: 0}, // backward (self)
		{Op: ic.BrCmp, A: ic.RegH, Target: 3}, // forward
		{Op: ic.Jmp},
		{Op: ic.Halt},
	})
	prof := &emu.Profile{
		Expect: []int64{100, 100, 1, 1},
		Taken:  []int64{80, 30, 0, 0},
	}
	back, fwd := NinetyFifty(p, prof)
	if math.Abs(back-0.8) > 1e-9 || math.Abs(fwd-0.3) > 1e-9 {
		t.Errorf("back=%f fwd=%f", back, fwd)
	}
}
