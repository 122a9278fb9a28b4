// Package stats implements the code analyses of paper §4: dynamic
// instruction-class frequencies (Figure 2), the Amdahl's-law speed-up bound
// for shared-memory models (§4.2, Figure 3), and the branch-predictability
// measurements that justify trace scheduling on symbolic code (§4.4,
// Table 2 and Figure 4).
package stats

import (
	"math"

	"symbol/internal/emu"
	"symbol/internal/ic"
)

// Mix is the dynamic instruction-class distribution of one run, with all
// operations weighted equally (the paper's Figure 2 hypothesis: "all
// operations have the same duration").
type Mix struct {
	Counts [ic.NumClasses]int64
	Total  int64
}

// ComputeMix tallies executed instructions per class.
func ComputeMix(prog *ic.Program, prof *emu.Profile) Mix {
	var m Mix
	for pc := range prog.Code {
		n := prof.Expect[pc]
		if n == 0 {
			continue
		}
		m.Counts[prog.Code[pc].Class()] += n
		m.Total += n
	}
	return m
}

// Fraction returns the share of class c.
func (m Mix) Fraction(c ic.Class) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Counts[c]) / float64(m.Total)
}

// Add accumulates another run's mix (for suite-wide averages the paper
// computes "as an average of the values obtained via sequential
// simulation").
func (m *Mix) Add(o Mix) {
	for i := range m.Counts {
		m.Counts[i] += o.Counts[i]
	}
	m.Total += o.Total
}

// AverageMix averages per-benchmark fractions with equal benchmark weight.
func AverageMix(mixes []Mix) [ic.NumClasses]float64 {
	var out [ic.NumClasses]float64
	if len(mixes) == 0 {
		return out
	}
	for _, m := range mixes {
		for c := ic.Class(0); c < ic.NumClasses; c++ {
			out[c] += m.Fraction(c)
		}
	}
	for c := range out {
		out[c] /= float64(len(mixes))
	}
	return out
}

// Amdahl computes the overall speed-up when the non-memory fraction
// (fractionEnhanced) is accelerated by speedupEnhanced (§4.2).
func Amdahl(fractionEnhanced, speedupEnhanced float64) float64 {
	if speedupEnhanced <= 0 {
		return 1
	}
	return 1 / ((1 - fractionEnhanced) + fractionEnhanced/speedupEnhanced)
}

// AmdahlLimit is the asymptotic bound as the enhancement goes to infinity:
// 1 / (1 - fractionEnhanced). With the paper's measured memory fraction of
// ~0.32 this is the famous "about 3".
func AmdahlLimit(fractionEnhanced float64) float64 {
	if fractionEnhanced >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - fractionEnhanced)
}

// AmdahlPoint is one point of the Figure 3 curves.
type AmdahlPoint struct {
	Enhancement float64 // speed-up applied to ALU/control/move operations
	Separate    float64 // memory executed separately (dotted curve)
	Overlapped  float64 // memory completely overlapped with computation
}

// AmdahlCurves evaluates Figure 3: the maximum ideal speed-up as a function
// of the concurrency applied to non-memory operations, under two
// hypotheses. memFraction is the measured share of memory operations.
func AmdahlCurves(memFraction float64, enhancements []float64) []AmdahlPoint {
	out := make([]AmdahlPoint, 0, len(enhancements))
	comp := 1 - memFraction
	for _, e := range enhancements {
		// Separate: memory still costs its share serially.
		sep := Amdahl(comp, e)
		// Overlapped: execution time is max(memory, computation/e) of the
		// original unit time — memory becomes the floor.
		ov := 1 / math.Max(memFraction, comp/e)
		out = append(out, AmdahlPoint{Enhancement: e, Separate: sep, Overlapped: ov})
	}
	return out
}

// FaultyPrediction is the paper's P_fp(b): the probability that a branch
// "usually taken" is not taken, or vice versa — min(p, 1-p).
func FaultyPrediction(p float64) float64 {
	if p > 0.5 {
		return 1 - p
	}
	return p
}

// BranchStats summarizes the dynamic branch behaviour of one run (§4.4).
type BranchStats struct {
	// AvgPfp is the execution-weighted average probability of faulty
	// prediction (Table 2).
	AvgPfp float64
	// AvgTaken is the execution-weighted average taken probability.
	AvgTaken float64
	// Executions is the total dynamic conditional-branch count.
	Executions int64
	// StaticBranches is the number of distinct executed conditional
	// branches.
	StaticBranches int
	// Histogram buckets P_fp in [0, 0.5] into Bins equal bins, weighting
	// each branch by its execution count (Figure 4's distribution).
	Histogram []float64
	Bins      int
}

// ComputeBranchStats derives the Table 2 / Figure 4 measurements: "a
// dynamic analysis during simulation which computes an average of the
// probability weighted with the execution frequency of the branches".
func ComputeBranchStats(prog *ic.Program, prof *emu.Profile, bins int) BranchStats {
	if bins <= 0 {
		bins = 20
	}
	bs := BranchStats{Bins: bins, Histogram: make([]float64, bins)}
	var wPfp, wTaken, wSum float64
	for pc := range prog.Code {
		in := &prog.Code[pc]
		if !in.IsCondBranch() {
			continue
		}
		n := prof.Expect[pc]
		if n == 0 {
			continue
		}
		p := float64(prof.Taken[pc]) / float64(n)
		pfp := FaultyPrediction(p)
		w := float64(n)
		wPfp += w * pfp
		wTaken += w * p
		wSum += w
		bs.Executions += n
		bs.StaticBranches++
		bin := int(pfp * 2 * float64(bins))
		if bin >= bins {
			bin = bins - 1
		}
		bs.Histogram[bin] += w
	}
	if wSum > 0 {
		bs.AvgPfp = wPfp / wSum
		bs.AvgTaken = wTaken / wSum
		for i := range bs.Histogram {
			bs.Histogram[i] /= wSum
		}
	}
	return bs
}

// NinetyFifty checks the numeric/scientific "90/50 branch-taken rule"
// against the measured profile: it returns the taken probability of
// backward branches and of forward branches. The paper shows the rule does
// not hold for Prolog.
func NinetyFifty(prog *ic.Program, prof *emu.Profile) (backward, forward float64) {
	var bT, bN, fT, fN float64
	for pc := range prog.Code {
		in := &prog.Code[pc]
		if !in.IsCondBranch() || prof.Expect[pc] == 0 {
			continue
		}
		t := float64(prof.Taken[pc])
		n := float64(prof.Expect[pc])
		if in.Target <= pc {
			bT += t
			bN += n
		} else {
			fT += t
			fN += n
		}
	}
	if bN > 0 {
		backward = bT / bN
	}
	if fN > 0 {
		forward = fT / fN
	}
	return backward, forward
}
