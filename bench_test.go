// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment from live
// runs (compile → profile → compact → simulate) and reports the headline
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The same data, as formatted tables, is
// internal/experiments/testdata/tables.golden.
package symbol_test

import (
	"context"
	"sync"
	"testing"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/experiments"
)

// The runner caches compiled/profiled benchmarks so a -benchtime above 1x
// re-measures scheduling and simulation, not parsing and profiling.
var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func getRunner() *experiments.Runner {
	runnerOnce.Do(func() { runner = experiments.NewRunner() })
	return runner
}

func BenchmarkFigure2InstructionMix(b *testing.B) {
	r := getRunner()
	var mem, ctrl float64
	for i := 0; i < b.N; i++ {
		f2, err := r.Figure2Mix(experiments.Table2Names())
		if err != nil {
			b.Fatal(err)
		}
		mem, ctrl = f2.MemoryFraction(), f2.ControlFraction()
	}
	b.ReportMetric(mem*100, "memory_%")
	b.ReportMetric(ctrl*100, "control_%")
}

func BenchmarkFigure3AmdahlCurves(b *testing.B) {
	r := getRunner()
	var limit float64
	for i := 0; i < b.N; i++ {
		f3, err := r.Figure3Amdahl(experiments.Table2Names())
		if err != nil {
			b.Fatal(err)
		}
		limit = f3.Limit
	}
	b.ReportMetric(limit, "amdahl_limit")
}

func BenchmarkTable1Compaction(b *testing.B) {
	r := getRunner()
	var t1 *experiments.Table1
	for i := 0; i < b.N; i++ {
		var err error
		t1, err = r.Table1Compaction(experiments.SuiteNames())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t1.Avg.TraceSpeedup, "trace_speedup")
	b.ReportMetric(t1.Avg.TraceLen, "trace_len")
	b.ReportMetric(t1.Avg.BBSpeedup, "bb_speedup")
	b.ReportMetric(t1.Avg.BBLen, "bb_len")
}

func BenchmarkTable2BranchPrediction(b *testing.B) {
	r := getRunner()
	var t2 *experiments.Table2
	for i := 0; i < b.N; i++ {
		var err error
		t2, err = r.Table2Branches(experiments.Table2Names())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t2.AvgPfp, "avg_pfp")
}

// BenchmarkFigure4Distribution is the histogram companion of Table 2.
func BenchmarkFigure4Distribution(b *testing.B) {
	r := getRunner()
	var nearZero, dataPeak float64
	for i := 0; i < b.N; i++ {
		t2, err := r.Table2Branches(experiments.Table2Names())
		if err != nil {
			b.Fatal(err)
		}
		nearZero = t2.Histogram[0]
		dataPeak = 0
		for _, v := range t2.Histogram[14:] { // P_fp ≥ 0.35
			dataPeak += v
		}
	}
	b.ReportMetric(nearZero*100, "deterministic_%")
	b.ReportMetric(dataPeak*100, "datadependent_%")
}

func BenchmarkTable3UnitSweep(b *testing.B) {
	r := getRunner()
	var t3 *experiments.Table3
	for i := 0; i < b.N; i++ {
		var err error
		t3, err = r.Table3Sweep(experiments.SuiteNames(), []int{1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t3.AvgBAM, "su_bam")
	for i, u := range t3.Units {
		b.ReportMetric(t3.AvgSU[i], map[int]string{1: "su_1u", 2: "su_2u", 3: "su_3u", 4: "su_4u", 5: "su_5u"}[u])
	}
}

// BenchmarkFigure6Saturation quantifies the saturation the figure plots:
// the marginal gain of the 5th unit over the 3rd.
func BenchmarkFigure6Saturation(b *testing.B) {
	r := getRunner()
	var marginal float64
	for i := 0; i < b.N; i++ {
		t3, err := r.Table3Sweep(experiments.SuiteNames(), []int{3, 5})
		if err != nil {
			b.Fatal(err)
		}
		marginal = t3.AvgSU[1] - t3.AvgSU[0]
	}
	b.ReportMetric(marginal, "su_gain_3to5")
}

func BenchmarkTable4AbsoluteTimes(b *testing.B) {
	r := getRunner()
	var t4 *experiments.Table4
	for i := 0; i < b.N; i++ {
		var err error
		t4, err = r.Table4Absolute(experiments.SuiteNames())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t4.NreverseMLIPS, "nrev_mlips")
	for _, row := range t4.Rows {
		if row.Name == "qsort" {
			b.ReportMetric(row.MeasuredMs, "qsort_ms")
		}
	}
}

func BenchmarkTable5RelativeSpeedup(b *testing.B) {
	r := getRunner()
	var t5 *experiments.Table5
	for i := 0; i < b.N; i++ {
		var err error
		t5, err = r.Table5Relative(experiments.SuiteNames())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t5.AvgSym3, "su_symbol3")
	b.ReportMetric(t5.AvgBAM, "su_bamlike")
}

// --- micro-benchmarks of the pipeline stages --------------------------------

func BenchmarkCompileQsort(b *testing.B) {
	src := mustSource(b, "qsort")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := symbol.Load(context.Background(), []byte(src)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulateQsort(b *testing.B) {
	prog := mustLoad(b, mustSource(b, "qsort"))
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := prog.Run(context.Background(), symbol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "icis")
}

func BenchmarkScheduleQsort(b *testing.B) {
	prog := mustLoad(b, mustSource(b, "qsort"))
	if _, err := prog.Profile(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.ScheduleWith(symbol.DefaultMachine(3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateQsort(b *testing.B) {
	prog := mustLoad(b, mustSource(b, "qsort"))
	sched, err := prog.ScheduleWith(symbol.DefaultMachine(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		sim, err := sched.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		cycles = sim.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// streamEngine compiles goal against a named benchmark's knowledge base
// into a pooled engine for the streaming benchmarks.
func streamEngine(b *testing.B, bench, goal string) *symbol.Engine {
	b.Helper()
	prog := mustLoad(b, mustSource(b, bench), symbol.WithGoal(goal))
	return symbol.NewEngine(prog)
}

// BenchmarkStreamQueensAll streams every solution of 8-queens through the
// suspendable engine — 92 suspend/resume cycles per iteration, the
// all-answers counterpart of the one-shot emulation benchmarks.
func BenchmarkStreamQueensAll(b *testing.B) {
	eng := streamEngine(b, "queens_8", "queens(8, Qs)")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		sols, err := eng.Query(ctx, symbol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for sols.Next() {
			steps = sols.Result().Steps
			n++
		}
		if err := sols.Close(); err != nil {
			b.Fatal(err)
		}
		if n != 92 {
			b.Fatalf("%d solutions, want 92", n)
		}
	}
	b.ReportMetric(92, "solutions")
	b.ReportMetric(float64(steps), "icis")
}

// BenchmarkStreamQueensFirst takes one solution and abandons the stream:
// the cost of a page-1-only paginated query, dominated by the O(dirty
// pages) state reset rather than the full 92-solution search.
func BenchmarkStreamQueensFirst(b *testing.B) {
	eng := streamEngine(b, "queens_8", "queens(8, Qs)")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sols, err := eng.Query(ctx, symbol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !sols.Next() {
			b.Fatalf("no solution: %v", sols.Err())
		}
		if err := sols.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamBoyerRuleJoin streams the full self-join of the boyer
// rule base (16x16 = 256 answers), each solution rendering four sizable
// rewrite-rule terms — a write-heavy all-answers workload.
func BenchmarkStreamBoyerRuleJoin(b *testing.B) {
	eng := streamEngine(b, "boyer", "rule(L1, R1), rule(L2, R2)")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sols, err := eng.Query(ctx, symbol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for sols.Next() {
			n++
		}
		if err := sols.Close(); err != nil {
			b.Fatal(err)
		}
		if n != 256 {
			b.Fatalf("%d join answers, want 256", n)
		}
	}
	b.ReportMetric(256, "solutions")
}

// mustLoad loads src with Load, failing the test on error.
func mustLoad(tb testing.TB, src string, opts ...symbol.LoadOption) *symbol.Program {
	tb.Helper()
	p, err := symbol.Load(context.Background(), []byte(src), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func mustSource(b *testing.B, name string) string {
	b.Helper()
	bm, err := benchprog.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return bm.Source
}

// --- ablation benches on the design choices DESIGN.md calls out -------------

// BenchmarkAblationRegionDisambiguation measures how much an oracle memory
// disambiguator (exact region knowledge) buys over the paper's conservative
// assumption — the paper argues pointer-derived stack references make
// disambiguation hopeless; this quantifies the forgone gain.
func BenchmarkAblationRegionDisambiguation(b *testing.B) {
	prog := mustLoad(b, mustSource(b, "qsort"))
	var base, oracle int64
	for i := 0; i < b.N; i++ {
		for j, conf := range []symbol.MachineConfig{symbol.DefaultMachine(3), func() symbol.MachineConfig {
			c := symbol.DefaultMachine(3)
			c.DisambiguateRegions = true
			return c
		}()} {
			sched, err := prog.ScheduleWith(conf)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := sched.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			if j == 0 {
				base = sim.Cycles
			} else {
				oracle = sim.Cycles
			}
		}
	}
	b.ReportMetric(float64(base), "cycles_conservative")
	b.ReportMetric(float64(oracle), "cycles_oracle")
	b.ReportMetric(100*(1-float64(oracle)/float64(base)), "oracle_gain_%")
}

// BenchmarkAblationTailDuplication quantifies the trace-length / code-size
// trade-off of growing traces through joins.
func BenchmarkAblationTailDuplication(b *testing.B) {
	prog := mustLoad(b, mustSource(b, "serialise"))
	var withLen, withoutLen float64
	var withCycles, withoutCycles int64
	var withOps, withoutOps int
	for i := 0; i < b.N; i++ {
		for j, opts := range []symbol.ScheduleOptions{{}, {NoTailDuplication: true}} {
			sched, err := prog.ScheduleWith(symbol.DefaultMachine(3), symbol.WithScheduleOptions(opts))
			if err != nil {
				b.Fatal(err)
			}
			sim, err := sched.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			if j == 0 {
				withLen, withCycles, withOps = sched.AvgTraceLen(), sim.Cycles, sched.Ops()
			} else {
				withoutLen, withoutCycles, withoutOps = sched.AvgTraceLen(), sim.Cycles, sched.Ops()
			}
		}
	}
	b.ReportMetric(withLen, "trace_len_dup")
	b.ReportMetric(withoutLen, "trace_len_nodup")
	b.ReportMetric(float64(withCycles), "cycles_dup")
	b.ReportMetric(float64(withoutCycles), "cycles_nodup")
	b.ReportMetric(100*float64(withOps-withoutOps)/float64(withoutOps), "code_growth_%")
}

// BenchmarkAblationModeAnalysis measures what perfect arithmetic mode
// analysis (no runtime tag checks, as the BAM compiler's dataflow analysis
// provides) saves in dynamic operations.
func BenchmarkAblationModeAnalysis(b *testing.B) {
	src := mustSource(b, "tak")
	var checked, unchecked int64
	for i := 0; i < b.N; i++ {
		p1 := mustLoad(b, src, symbol.WithCompileOptions(symbol.Options{ArithChecks: true}))
		p2 := mustLoad(b, src, symbol.WithCompileOptions(symbol.Options{ArithChecks: false}))
		r1, err := p1.Run(context.Background(), symbol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := p2.Run(context.Background(), symbol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		checked, unchecked = r1.Steps, r2.Steps
	}
	b.ReportMetric(float64(checked), "icis_checked")
	b.ReportMetric(float64(unchecked), "icis_mode_analysis")
}

// BenchmarkAblationSplitFormats quantifies the prototype's two-instruction-
// format pinout constraint (§5.1: "the compiler has to choose, and
// parallelism is somewhat reduced").
func BenchmarkAblationSplitFormats(b *testing.B) {
	prog := mustLoad(b, mustSource(b, "serialise"))
	var unified, split int64
	for i := 0; i < b.N; i++ {
		for j, mk := range []func() symbol.MachineConfig{
			func() symbol.MachineConfig { return symbol.DefaultMachine(3) },
			func() symbol.MachineConfig {
				c := symbol.DefaultMachine(3)
				c.SplitFormats = true
				return c
			},
		} {
			sched, err := prog.ScheduleWith(mk())
			if err != nil {
				b.Fatal(err)
			}
			sim, err := sched.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			if j == 0 {
				unified = sim.Cycles
			} else {
				split = sim.Cycles
			}
		}
	}
	b.ReportMetric(float64(unified), "cycles_unified")
	b.ReportMetric(float64(split), "cycles_split")
	b.ReportMetric(100*(float64(split)/float64(unified)-1), "format_cost_%")
}
