package experiments

import (
	"fmt"
	"strings"

	"symbol"
	"symbol/internal/ic"
	"symbol/internal/stats"
)

// --- Table 1 ---------------------------------------------------------------

// Table1Row compares basic-block and trace compaction for one benchmark on
// an unbounded-resource machine (the paper's "available concurrency").
type Table1Row struct {
	Name         string
	TraceSpeedup float64
	TraceLen     float64
	BBSpeedup    float64
	BBLen        float64
}

// Table1 is the available-concurrency comparison.
type Table1 struct {
	Rows []Table1Row
	Avg  Table1Row
}

// Table1Compaction measures Table 1 by scheduling each benchmark onto an
// unbounded machine with and without trace scheduling and simulating the
// compacted code.
func (r *Runner) Table1Compaction(names []string) (*Table1, error) {
	conf := symbol.UnboundedMachine()
	rows := make([]Table1Row, len(names))
	// Cell 0 schedules traces, cell 1 basic blocks only.
	err := r.cells(names, 2, func(i, c int, e *entry) error {
		n := names[i]
		if c == 0 {
			tr, err := e.prog.ScheduleWith(conf)
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			trSim, err := tr.Simulate()
			if err != nil {
				return fmt.Errorf("%s traces: %w", n, err)
			}
			rows[i].Name = n
			rows[i].TraceSpeedup = symbol.Speedup(e.seq, trSim.Cycles)
			rows[i].TraceLen = tr.AvgTraceLen()
			return nil
		}
		bb, err := e.prog.ScheduleWith(conf, symbol.WithBasicBlocksOnly())
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		bbSim, err := bb.Simulate()
		if err != nil {
			return fmt.Errorf("%s basic blocks: %w", n, err)
		}
		rows[i].BBSpeedup = symbol.Speedup(e.seq, bbSim.Cycles)
		rows[i].BBLen = bb.AvgTraceLen()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table1{Rows: rows}
	for _, row := range rows {
		out.Avg.TraceSpeedup += row.TraceSpeedup
		out.Avg.TraceLen += row.TraceLen
		out.Avg.BBSpeedup += row.BBSpeedup
		out.Avg.BBLen += row.BBLen
	}
	k := float64(len(out.Rows))
	if k > 0 {
		out.Avg = Table1Row{Name: "average",
			TraceSpeedup: out.Avg.TraceSpeedup / k, TraceLen: out.Avg.TraceLen / k,
			BBSpeedup: out.Avg.BBSpeedup / k, BBLen: out.Avg.BBLen / k}
	}
	return out, nil
}

// Render formats Table 1.
func (t *Table1) Render() string {
	var b strings.Builder
	b.WriteString("Table 1 — available concurrency: traces vs basic blocks (unbounded units)\n\n")
	fmt.Fprintf(&b, "%-12s | %14s %12s | %14s %12s\n",
		"benchmark", "trace speedup", "trace len", "bb speedup", "bb len")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s | %14.2f %12.2f | %14.2f %12.2f\n",
			r.Name, r.TraceSpeedup, r.TraceLen, r.BBSpeedup, r.BBLen)
	}
	fmt.Fprintf(&b, "%-12s | %14.2f %12.2f | %14.2f %12.2f\n",
		"average", t.Avg.TraceSpeedup, t.Avg.TraceLen, t.Avg.BBSpeedup, t.Avg.BBLen)
	return b.String()
}

// --- Table 2 / Figure 4 -----------------------------------------------------

// Table2Row is one benchmark's branch predictability.
type Table2Row struct {
	Name string
	Bs   stats.BranchStats
	// Backward/Forward taken probabilities for the 90/50-rule check.
	BackwardTaken float64
	ForwardTaken  float64
}

// Table2 is the branch-prediction study.
type Table2 struct {
	Rows   []Table2Row
	AvgPfp float64
	// Histogram aggregates Figure 4's distribution over all benchmarks
	// (equal benchmark weight).
	Histogram []float64
	Bins      int
}

// Table2Branches measures P_fp for each benchmark.
func (r *Runner) Table2Branches(names []string) (*Table2, error) {
	const bins = 20
	rows := make([]Table2Row, len(names))
	err := r.cells(names, 1, func(i, _ int, e *entry) error {
		bs := stats.ComputeBranchStats(e.prog.IC(), e.prof, bins)
		back, fwd := stats.NinetyFifty(e.prog.IC(), e.prof)
		rows[i] = Table2Row{Name: names[i], Bs: bs, BackwardTaken: back, ForwardTaken: fwd}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table2{Rows: rows, Bins: bins, Histogram: make([]float64, bins)}
	for _, row := range rows {
		out.AvgPfp += row.Bs.AvgPfp
		for i, v := range row.Bs.Histogram {
			out.Histogram[i] += v
		}
	}
	if k := float64(len(out.Rows)); k > 0 {
		out.AvgPfp /= k
		for i := range out.Histogram {
			out.Histogram[i] /= k
		}
	}
	return out, nil
}

// Render formats Table 2 plus the Figure 4 histogram.
func (t *Table2) Render() string {
	var b strings.Builder
	b.WriteString("Table 2 — average probability of faulty branch prediction (P_fp)\n\n")
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %12s\n", "benchmark", "P_fp", "back-taken", "fwd-taken", "dyn branches")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %8.4f %10.3f %10.3f %12d\n",
			r.Name, r.Bs.AvgPfp, r.BackwardTaken, r.ForwardTaken, r.Bs.Executions)
	}
	fmt.Fprintf(&b, "%-12s %8.4f\n\n", "average", t.AvgPfp)
	b.WriteString("Figure 4 — distribution of P_fp (bin width 0.025, weight = execution share)\n")
	for i, v := range t.Histogram {
		lo := float64(i) * 0.5 / float64(t.Bins)
		bar := strings.Repeat("#", int(v*120+0.5))
		fmt.Fprintf(&b, "  %5.3f %6.1f%% %s\n", lo, 100*v, bar)
	}
	return b.String()
}

// --- Table 3 / Figure 6 -----------------------------------------------------

// Table3Row is one benchmark's unit sweep.
type Table3Row struct {
	Name      string
	SeqCycles int64
	BAMCycles int64 // single-issue pipelined machine on uncompacted code
	Cycles    []int64
	Speedups  []float64 // vs SeqCycles, per unit count
	BAMSU     float64
}

// Table3 is the architecture sweep (Figure 6 plots Speedups).
type Table3 struct {
	Units []int
	Rows  []Table3Row
	// AvgSU[i] is the mean speed-up at Units[i]; AvgBAM the BAM stand-in.
	AvgSU  []float64
	AvgBAM float64
}

// Table3Sweep schedules and simulates every benchmark at each unit count.
// The BAM column models the BAM processor as a single-issue pipelined RISC:
// basic-block compaction on one unit (the paper observes the BAM sits at
// the basic-block limit).
func (r *Runner) Table3Sweep(names []string, units []int) (*Table3, error) {
	rows := make([]Table3Row, len(names))
	for i := range rows {
		rows[i].Cycles = make([]int64, len(units))
		rows[i].Speedups = make([]float64, len(units))
	}
	// Cell 0 is the BAM column, cell c the units[c-1] machine.
	err := r.cells(names, 1+len(units), func(i, c int, e *entry) error {
		n, row := names[i], &rows[i]
		if c == 0 {
			bam, err := e.prog.ScheduleWith(symbol.BAMMachine(), symbol.WithBasicBlocksOnly())
			if err != nil {
				return err
			}
			bamSim, err := bam.Simulate()
			if err != nil {
				return fmt.Errorf("%s BAM: %w", n, err)
			}
			row.Name, row.SeqCycles = n, e.seq
			row.BAMCycles = bamSim.Cycles
			row.BAMSU = symbol.Speedup(e.seq, bamSim.Cycles)
			return nil
		}
		u := units[c-1]
		sched, err := e.prog.ScheduleWith(symbol.DefaultMachine(u))
		if err != nil {
			return err
		}
		sim, err := sched.Simulate()
		if err != nil {
			return fmt.Errorf("%s %d units: %w", n, u, err)
		}
		row.Cycles[c-1] = sim.Cycles
		row.Speedups[c-1] = symbol.Speedup(e.seq, sim.Cycles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table3{Units: units, Rows: rows, AvgSU: make([]float64, len(units))}
	for _, row := range rows {
		out.AvgBAM += row.BAMSU
		for i, su := range row.Speedups {
			out.AvgSU[i] += su
		}
	}
	if k := float64(len(out.Rows)); k > 0 {
		out.AvgBAM /= k
		for i := range out.AvgSU {
			out.AvgSU[i] /= k
		}
	}
	return out, nil
}

// Render formats Table 3.
func (t *Table3) Render() string {
	var b strings.Builder
	b.WriteString("Table 3 — cycles and speed-up vs sequential for each configuration\n\n")
	fmt.Fprintf(&b, "%-12s %12s | %12s %5s |", "benchmark", "seq", "BAM", "s.u.")
	for _, u := range t.Units {
		fmt.Fprintf(&b, " %10s %5s |", fmt.Sprintf("%d unit", u), "s.u.")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %12d | %12d %5.2f |", r.Name, r.SeqCycles, r.BAMCycles, r.BAMSU)
		for i := range t.Units {
			fmt.Fprintf(&b, " %10d %5.2f |", r.Cycles[i], r.Speedups[i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s %12s | %12s %5.2f |", "average", "", "", t.AvgBAM)
	for i := range t.Units {
		fmt.Fprintf(&b, " %10s %5.2f |", "", t.AvgSU[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// RenderFigure6 renders the speed-up curves as an ASCII plot.
func (t *Table3) RenderFigure6() string {
	var b strings.Builder
	b.WriteString("Figure 6 — speed-up vs number of units (average over the suite)\n\n")
	maxSU := 0.0
	for _, su := range t.AvgSU {
		if su > maxSU {
			maxSU = su
		}
	}
	for i, u := range t.Units {
		bar := strings.Repeat("*", int(t.AvgSU[i]/3.0*60+0.5))
		fmt.Fprintf(&b, "  %d units %5.2f %s\n", u, t.AvgSU[i], bar)
	}
	fmt.Fprintf(&b, "  BAM     %5.2f %s\n", t.AvgBAM, strings.Repeat("*", int(t.AvgBAM/3.0*60+0.5)))
	b.WriteString("  (scale: 60 columns = speed-up 3.0, the Amdahl asymptote)\n")
	return b.String()
}

// --- Tables 4 and 5 ---------------------------------------------------------

// refTimes are the paper's published execution times in milliseconds
// (Table 4); -1 marks entries the paper leaves blank. Columns: Quintus,
// VLSI-PLM, KCM, BAM, and the paper's own Symbol-3 measurement.
var refTimes = map[string][5]float64{
	"divide10":  {0.41, 0.38, 0.091, 0.0387, 0.0423},
	"log10":     {0.15, 0.109, 0.039, 0.0201, 0.0146},
	"mu":        {12.407, 4.644, -1, 0.8557, 1.2913},
	"reverse":   {1.62, 2.10, 0.65, 0.2057, 0.2401},
	"ops8":      {0.24, 0.214, 0.059, 0.0251, 0.0274},
	"prover":    {8.67, 6.83, -1, 0.9722, 1.2995},
	"qsort":     {4.82, 4.24, 1.32, 0.2253, 0.2192},
	"queens_8":  {21.20, 28.80, 1.205, 1.2017, 1.549},
	"sendmore":  {490.00, -1, -1, 42.3364, 44.0939},
	"serialise": {3.10, 2.47, 1.22, 0.5133, 0.6556},
	"tak":       {1120.00, 940.00, -1, 31.047, 32.067},
	"times10":   {0.345, 0.2470, 0.082, 0.0346, 0.0363},
	"zebra":     {425.00, -1, -1, 86.890, 119.184},
}

// ClockHz is the prototype's measured operating frequency (§5.2: 30 MHz).
const ClockHz = 30e6

// Symbol3Config models the three-processor VLSI prototype (§5.1): three
// units; memory organized in a three-cycle pipeline, which lengthens loads
// and makes branches two-cycle delayed; and the two instruction formats
// (ALU vs control words) imposed by pinout limitations.
func Symbol3Config() symbol.MachineConfig {
	c := symbol.DefaultMachine(3)
	c.MemLatency = 3
	c.BranchBubble = 2
	c.SplitFormats = true
	return c
}

// Table4Row is one benchmark's absolute-time comparison.
type Table4Row struct {
	Name       string
	Ref        [5]float64 // paper-published ms (see refTimes)
	Cycles     int64      // measured Symbol-3 cycles (this reproduction)
	MeasuredMs float64
}

// Table4 is the absolute-performance comparison.
type Table4 struct {
	Rows []Table4Row
	// NreverseMLIPS is the peak logical-inferences-per-second figure the
	// paper quotes for NREVERSE (2.1 MLIPS at 30 MHz).
	NreverseMLIPS float64
}

// nrevLI is the standard logical-inference count of naive reverse of a
// 30-element list (496 LI).
const nrevLI = 496

// Table4Absolute runs every benchmark on the Symbol-3 prototype model and
// converts cycles to milliseconds at the prototype clock.
func (r *Runner) Table4Absolute(names []string) (*Table4, error) {
	conf := Symbol3Config()
	rows := make([]Table4Row, len(names))
	err := r.cells(names, 1, func(i, _ int, e *entry) error {
		n := names[i]
		sched, err := e.prog.ScheduleWith(conf)
		if err != nil {
			return err
		}
		sim, err := sched.Simulate()
		if err != nil {
			return fmt.Errorf("%s symbol-3: %w", n, err)
		}
		rows[i] = Table4Row{
			Name:       n,
			Ref:        refTimes[n],
			Cycles:     sim.Cycles,
			MeasuredMs: float64(sim.Cycles) / ClockHz * 1000,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table4{Rows: rows}
	for _, row := range rows {
		if row.Name == "reverse" && row.MeasuredMs > 0 {
			out.NreverseMLIPS = nrevLI / (row.MeasuredMs * 1000) // LI per µs
		}
	}
	return out, nil
}

// Render formats Table 4.
func (t *Table4) Render() string {
	var b strings.Builder
	b.WriteString("Table 4 — absolute times in ms (reference columns: paper-published values)\n\n")
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s %10s | %12s %10s\n",
		"benchmark", "Quintus", "VLSI-PLM", "KCM", "BAM", "Symbol-3*", "cycles", "measured")
	ms := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.4f", v)
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s %10s | %12d %10.4f\n",
			r.Name, ms(r.Ref[0]), ms(r.Ref[1]), ms(r.Ref[2]), ms(r.Ref[3]), ms(r.Ref[4]),
			r.Cycles, r.MeasuredMs)
	}
	fmt.Fprintf(&b, "\n(*) paper's own Symbol-3 measurement. Measured column: this\n")
	fmt.Fprintf(&b, "reproduction's 3-unit prototype model at %.0f MHz.\n", ClockHz/1e6)
	if t.NreverseMLIPS > 0 {
		fmt.Fprintf(&b, "NREVERSE peak: %.2f MLIPS (paper: 2.1 MLIPS)\n", t.NreverseMLIPS)
	}
	return b.String()
}

// Table5Row is one benchmark's prototype speed-up versus a sequential
// machine with identical operation durations.
type Table5Row struct {
	Name       string
	SeqCycles  int64 // sequential machine, prototype durations
	BAMSpeedup float64
	Sym3SU     float64
}

// Table5 is the relative-speed-up comparison (§5.3, Table 5).
type Table5 struct {
	Rows    []Table5Row
	AvgBAM  float64
	AvgSym3 float64
}

// Table5Relative computes speed-ups under the prototype's operation
// durations (memory and control: three-cycle pipeline).
func (r *Runner) Table5Relative(names []string) (*Table5, error) {
	conf := Symbol3Config()
	bamConf := conf
	bamConf.Units = 1
	bamConf.BranchBubble = 0 // the BAM fills its delayed branches
	rows := make([]Table5Row, len(names))
	// Cell 0 is the Symbol-3 column, cell 1 the BAM-like one.
	err := r.cells(names, 2, func(i, c int, e *entry) error {
		mix := stats.ComputeMix(e.prog.IC(), e.prof)
		seq := mix.Counts[ic.ClassALU] + mix.Counts[ic.ClassMove] + mix.Counts[ic.ClassSys] +
			3*(mix.Counts[ic.ClassMemory]+mix.Counts[ic.ClassControl])
		if c == 0 {
			s3, err := e.prog.ScheduleWith(conf)
			if err != nil {
				return err
			}
			s3Sim, err := s3.Simulate()
			if err != nil {
				return err
			}
			rows[i].Name, rows[i].SeqCycles = names[i], seq
			rows[i].Sym3SU = symbol.Speedup(seq, s3Sim.Cycles)
			return nil
		}
		bam, err := e.prog.ScheduleWith(bamConf, symbol.WithBasicBlocksOnly())
		if err != nil {
			return err
		}
		bamSim, err := bam.Simulate()
		if err != nil {
			return err
		}
		rows[i].BAMSpeedup = symbol.Speedup(seq, bamSim.Cycles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table5{Rows: rows}
	for _, row := range rows {
		out.AvgBAM += row.BAMSpeedup
		out.AvgSym3 += row.Sym3SU
	}
	if k := float64(len(out.Rows)); k > 0 {
		out.AvgBAM /= k
		out.AvgSym3 /= k
	}
	return out, nil
}

// Render formats Table 5.
func (t *Table5) Render() string {
	var b strings.Builder
	b.WriteString("Table 5 — speed-up vs a sequential machine with prototype durations\n\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "benchmark", "seq cycles", "BAM-like", "Symbol-3")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %12d %12.2f %12.2f\n", r.Name, r.SeqCycles, r.BAMSpeedup, r.Sym3SU)
	}
	fmt.Fprintf(&b, "%-12s %12s %12.2f %12.2f\n", "average", "", t.AvgBAM, t.AvgSym3)
	return b.String()
}
