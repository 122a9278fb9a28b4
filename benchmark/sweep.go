package main

import (
	"context"
	"math"
	"math/rand/v2"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/ic"
	"symbol/internal/vliw"
)

// table3AvgSpeedups are the Table 3 average speed-ups over the sequential
// machine committed in EXPERIMENTS.md: the BAM stand-in, then 1 to 5
// units. Every whole paper-sweep pass must reproduce them to two decimals.
var table3AvgSpeedups = [6]float64{1.73, 2.00, 2.59, 2.79, 2.84, 2.86}

// sweepConfigs is the number of machine configurations per program: the
// BAM stand-in and 1 to 5 units.
const sweepConfigs = 6

// sweep regenerates Table 3 from source each pass: per program a profile
// (symbol.Load + Program.Profile), then a cell per configuration
// (Program.ScheduleWith + Scheduled.Simulate).
type sweep struct {
	o     *options
	progs []*benchprog.Benchmark
	rows  map[string]*sweepRow
	// simulated cycles and simulation time of the traced cells
	simCycles int64
	simTime   time.Duration
}

type sweepRow struct {
	Prog       string     `json:"prog"`
	ProfileMs  float64    `json:"profile_ms"`
	SeqCycles  int64      `json:"seq_cycles"`
	CompactMs  [6]float64 `json:"compact_ms"`
	SimMs      [6]float64 `json:"sim_ms"`
	Cycles     [6]int64   `json:"cycles"`
	Words      [6]int     `json:"vliw_words"`
	AvgTrace   [6]float64 `json:"avg_trace_len"`
	Speedups   [6]float64 `json:"speedups"`
	SimAllocKB [6]float64 `json:"alloc_kb_per_sim"`
}

func setupSweep(ctx context.Context, o *options) (bench, error) {
	s := &sweep{o: o, progs: benchprog.Suite(), rows: map[string]*sweepRow{}}
	// Warm-up: one profile and one cell of the smallest program, untimed.
	p, err := symbol.Load(ctx, []byte(benchSource("conc30")))
	if err != nil {
		return nil, err
	}
	sched, err := p.ScheduleWith(symbol.DefaultMachine(3))
	if err != nil {
		return nil, err
	}
	if _, err := sched.Simulate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweep) close() {}

func machineFor(cfg int) (symbol.MachineConfig, []symbol.ScheduleOption) {
	if cfg == 0 {
		return symbol.BAMMachine(), []symbol.ScheduleOption{symbol.WithBasicBlocksOnly()}
	}
	return symbol.DefaultMachine(cfg), nil
}

func (s *sweep) pass(ctx context.Context, rng *rand.Rand, ph *phase, tr *tracer) error {
	var sum [sweepConfigs]float64
	passOps := 0
	whole := true // the pass ran every operation and all of them passed
	more := func() bool {
		if s.o.opsPerPass > 0 && passOps >= s.o.opsPerPass {
			whole = false
			return false
		}
		passOps++
		return true
	}
	sec := ph.begin()
	for _, i := range rng.Perm(len(s.progs)) {
		b := s.progs[i]
		if !more() {
			break
		}
		op := tr.newOp()
		start := time.Now()
		sp := tr.begin(op, spanRef{}, "symbol.Load", b.Name)
		p, err := symbol.Load(ctx, []byte(b.Source))
		sp.end()
		if err == nil {
			sp = tr.begin(op, spanRef{}, "emu.profile", b.Name)
			_, err = p.Profile()
			sp.end()
		}
		d := time.Since(start)
		var seq int64
		if err == nil {
			seq, err = p.SeqCycles()
		}
		ph.record("profile", b.Name, d, err == nil)
		if err != nil {
			logFailure("paper-sweep %s profile: %v", b.Name, err)
			whole = false
			continue
		}
		row := s.row(b.Name)
		row.SeqCycles = seq
		for _, c := range rng.Perm(sweepConfigs) {
			if !more() {
				break
			}
			ok := s.cell(p, b, c, seq, row, ph, tr, &sum)
			whole = whole && ok
		}
	}
	ph.end(sec)
	// A whole pass regenerated Table 3: its averages must match the
	// committed ones, or every operation of the pass counts as failed.
	if whole {
		for c := range sum {
			avg := sum[c] / float64(len(s.progs))
			if math.Abs(avg-table3AvgSpeedups[c]) > 0.005 {
				logFailure("paper-sweep: configuration %d average speed-up %.4f, want %.2f", c, avg, table3AvgSpeedups[c])
				ph.fail(passOps)
				break
			}
		}
	}
	return nil
}

// cell schedules and simulates p on configuration c and checks the
// simulated output.
func (s *sweep) cell(p *symbol.Program, b *benchprog.Benchmark, c int, seq int64, row *sweepRow, ph *phase, tr *tracer, sum *[sweepConfigs]float64) bool {
	conf, sopts := machineFor(c)
	op := tr.newOp()
	start := time.Now()
	compact := tr.begin(op, spanRef{}, "core.compact", b.Name)
	sched, err := p.ScheduleWith(conf, sopts...)
	compact.end()
	var sim *symbol.SimResult
	simSpan := spanRef{}
	if err == nil {
		simSpan = tr.begin(op, spanRef{}, "vliw.sim", b.Name)
		sim, err = sched.Simulate()
		simSpan.end()
	}
	d := time.Since(start)
	ok := err == nil && sim.Succeeded && sim.Output == s.o.expect[b.Name]
	ph.record("cell", b.Name, d, ok)
	if !ok {
		logFailure("paper-sweep %s configuration %d: %v", b.Name, c, err)
		return false
	}
	row.Cycles[c] = sim.Cycles
	row.Words[c] = sched.Words()
	row.AvgTrace[c] = sched.AvgTraceLen()
	row.Speedups[c] = symbol.Speedup(seq, sim.Cycles)
	sum[c] += row.Speedups[c]
	if tr != nil {
		row.CompactMs[c] = compact.ms()
		row.SimMs[c] = simSpan.ms()
		row.SimAllocKB[c] = float64(tr.spans[simSpan.i].Alloc) / 1024
		s.simCycles += sim.Cycles
		s.simTime += time.Duration(simSpan.ms() * 1e6)
	}
	return true
}

// stateAllocMs is the fixed cost a cell pays for its fresh machine state:
// a small program's 3-unit simulation through Scheduled.Simulate, which
// allocates a state, minus the same simulation on a state allocated
// beforehand. The median of five tries.
func stateAllocMs(ctx context.Context) (float64, error) {
	p, err := symbol.Load(ctx, []byte(benchSource("conc30")))
	if err != nil {
		return 0, err
	}
	sched, err := p.ScheduleWith(symbol.DefaultMachine(3))
	if err != nil {
		return 0, err
	}
	st := ic.NewState()
	var diffs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := sched.Simulate(); err != nil {
			return 0, err
		}
		fresh := time.Since(start)
		start = time.Now()
		_, err := vliw.Sim(sched.VLIW(), vliw.SimOptions{State: st})
		reused := time.Since(start)
		st.Reset()
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, ms(fresh-reused))
	}
	return median(diffs), nil
}

func (s *sweep) row(name string) *sweepRow {
	r := s.rows[name]
	if r == nil {
		r = &sweepRow{Prog: name}
		s.rows[name] = r
	}
	return r
}

func (s *sweep) layers(ctx context.Context, tr *tracer) (map[string]metric, any, error) {
	for prog, a := range tr.byProg("emu.profile") {
		s.row(prog).ProfileMs = a.medianMs()
	}
	var words, trace, cycles []float64
	rows := make([]*sweepRow, 0, len(s.rows))
	for _, name := range sortedKeys(s.rows) {
		r := s.rows[name]
		rows = append(rows, r)
		for c := 0; c < sweepConfigs; c++ {
			if r.Cycles[c] == 0 {
				continue
			}
			words = append(words, float64(r.Words[c]))
			trace = append(trace, r.AvgTrace[c])
			cycles = append(cycles, float64(r.Cycles[c]))
		}
	}
	alloc, err := stateAllocMs(ctx)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metric{
		"emu.profile_ms_per_program":   {tr.geoMs("emu.profile"), "ms"},
		"core.compact_ms_per_cell":     {tr.geoMs("core.compact"), "ms"},
		"core.vliw_words":              {geomean(words), "count"},
		"core.avg_trace_len":           {geomean(trace), "ops"},
		"vliw.sim_ms_per_cell":         {tr.geoMs("vliw.sim"), "ms"},
		"vliw.cycles":                  {geomean(cycles), "count"},
		"vliw.mcycles_per_s":           {perSecond(float64(s.simCycles)/1e6, s.simTime), "Mcycles/s"},
		"vliw.state_alloc_ms_per_cell": {alloc, "ms"},
	}
	return m, withGeomean(rows), nil
}
