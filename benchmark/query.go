package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/ic"
)

// liveEngines is the size of the query workload's rolling engine set.
const liveEngines = 4

// runsPerPass fixes how often each program runs in one query pass: about
// 150 ms of emulator time each on the reference machine, capped at 1500
// runs for the programs that finish in microseconds; sendmore, at about
// 275 ms a run, runs once. The weights are constants, not measured at run
// time, so every run (and every commit) draws the same operation list.
var runsPerPass = map[string]int{
	"boyer": 16, "browse": 1050, "conc30": 1500, "crypt": 300,
	"divide10": 1500, "fib": 41, "flatten": 1500, "hanoi": 37,
	"log10": 1500, "mu": 285, "ops8": 1500, "poly": 21,
	"prover": 650, "qsort": 750, "queens_8": 120, "query": 285,
	"reverse": 1500, "sendmore": 1, "serialise": 1500, "tak": 10,
	"times10": 1500, "zebra": 300,
}

// query makes warm Engine.Run calls at the default dispatch. A pass walks
// the corpus in a seeded order with a window of liveEngines engines: each
// step a new engine enters the window and the oldest is dropped, as the
// serve tier's byte-budgeted cache drops engines.
type query struct {
	o     *options
	progs []*benchprog.Benchmark
	ps    map[string]*symbol.Program
	// engines of the traced passes, kept for their pool metrics
	traced map[string][]*symbol.Engine
}

type queryRow struct {
	Prog          string  `json:"prog"`
	Runs          int     `json:"runs"`
	FusedUs       float64 `json:"fused_us_per_run"`
	LegacyUs      float64 `json:"legacy_us_per_run"`
	NoFuseUs      float64 `json:"nofuse_us_per_run"`
	ThreadedUs    float64 `json:"threaded_us_per_run"`
	ThreadBuildMs float64 `json:"threaded_build_ms"`
	Steps         int64   `json:"steps_per_run"`
	DirtyPages    float64 `json:"dirty_pages_per_run"`
	PoolMisses    int64   `json:"pool_misses"`
	AllocKB       float64 `json:"alloc_kb_per_run"`
}

func setupQuery(ctx context.Context, o *options) (bench, error) {
	q := &query{o: o, progs: benchprog.All(), ps: map[string]*symbol.Program{}}
	st := ic.NewState()
	for _, b := range q.progs {
		p, err := symbol.Load(ctx, []byte(b.Source))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		// Warm-up: predecode and one run of every program, untimed, on a
		// single reused state.
		exec.Of(p.IC())
		if _, err := emu.Run(p.IC(), emu.Options{State: st}); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", b.Name, err)
		}
		st.Reset()
		q.ps[b.Name] = p
	}
	return q, nil
}

func (q *query) close() {}

type queryOp struct {
	prog string
	eng  *symbol.Engine
}

func (q *query) pass(ctx context.Context, rng *rand.Rand, ph *phase, tr *tracer) error {
	n := len(q.progs)
	perm := rng.Perm(n)
	live := map[int]*symbol.Engine{} // by walk position
	runsLeft := map[int]int{}
	done := 0
	last := n - liveEngines // the window's last start position
	for stage := 0; stage <= last; stage++ {
		delete(live, stage-1)
		var ops []queryOp
		for slot := stage; slot < stage+liveEngines; slot++ {
			b := q.progs[perm[slot]]
			if live[slot] == nil {
				live[slot] = symbol.NewEngine(q.ps[b.Name])
				runsLeft[slot] = runsPerPass[b.Name]
				if tr != nil {
					if q.traced == nil {
						q.traced = map[string][]*symbol.Engine{}
					}
					q.traced[b.Name] = append(q.traced[b.Name], live[slot])
				}
			}
			// Spread a program's runs evenly over the steps it is live.
			stepsLeft := min(slot, last) - stage + 1
			r := (runsLeft[slot] + stepsLeft - 1) / stepsLeft
			runsLeft[slot] -= r
			for i := 0; i < r; i++ {
				ops = append(ops, queryOp{prog: b.Name, eng: live[slot]})
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		if lim := q.o.opsPerPass; lim > 0 {
			ops = ops[:max(0, min(len(ops), lim-done))]
		}
		done += len(ops)
		// A collection before each step, untimed, frees the states of the
		// engine dropped a step earlier (sync.Pool keeps them for two
		// collections), so peak RSS measures the live window rather than
		// reclaim lag. Live engines keep theirs through the pool's victim
		// cache.
		runtime.GC()
		sec := ph.begin()
		for _, op := range ops {
			o := tr.newOp()
			s := tr.beginNoAlloc(o, spanRef{}, "engine.run", op.prog)
			start := time.Now()
			res, err := op.eng.Run(ctx, symbol.RunOptions{})
			d := time.Since(start)
			s.end()
			ph.record("run", op.prog, d, err == nil && res.Succeeded && res.Output == q.o.expect[op.prog])
		}
		ph.end(sec)
	}
	return nil
}

func (q *query) layers(ctx context.Context, tr *tracer) (map[string]metric, any, error) {
	runs := tr.byProg("engine.run")
	rows := map[string]*queryRow{}
	var fused, steps, dirty []float64
	var totalSteps int64
	var totalRun time.Duration
	var misses, ops int64
	for _, b := range q.progs {
		a := runs[b.Name]
		if a == nil {
			continue
		}
		r := &queryRow{Prog: b.Name, Runs: a.n, FusedUs: a.medianMs() * 1000}
		var reset, gets int64
		for _, e := range q.traced[b.Name] {
			m := e.Metrics()
			r.PoolMisses += m.PoolMisses
			reset += m.DirtyPagesReset
			gets += m.PoolGets
			if m.Succeeded > 0 {
				r.Steps = m.Totals.Steps / m.Succeeded
			}
		}
		if gets > 0 {
			r.DirtyPages = float64(reset) / float64(gets)
		}
		misses += r.PoolMisses
		ops += int64(a.n)
		totalSteps += r.Steps * int64(a.n)
		totalRun += a.total
		fused = append(fused, r.FusedUs)
		steps = append(steps, float64(r.Steps))
		dirty = append(dirty, r.DirtyPages)
		rows[b.Name] = r
	}

	// The non-default cores, measured on warm engines of every program that
	// ran, plus the one-off closure-threaded build.
	var legacy, nofuse, threaded, build []float64
	for _, b := range q.progs {
		r := rows[b.Name]
		if r == nil {
			continue
		}
		reps := max(1, min(runsPerPass[b.Name]/10, 20))
		for _, c := range []struct {
			d   symbol.Dispatch
			out *float64
			all *[]float64
		}{
			{symbol.DispatchLegacy, &r.LegacyUs, &legacy},
			{symbol.DispatchNoFuse, &r.NoFuseUs, &nofuse},
			{symbol.DispatchThreaded, &r.ThreadedUs, &threaded},
		} {
			us, _, err := q.coreUs(ctx, b.Name, c.d, reps)
			if err != nil {
				return nil, nil, err
			}
			*c.out = us
			*c.all = append(*c.all, us)
		}
		// Heap bytes per run at the default dispatch, counted apart from the
		// timed runs, whose spans skip the count to stay cheap.
		var err error
		if _, r.AllocKB, err = q.coreUs(ctx, b.Name, symbol.DispatchAuto, reps); err != nil {
			return nil, nil, err
		}
		// A fresh snapshot-free load has no threaded image yet: its first
		// threaded run pays the build.
		p, err := symbol.Load(ctx, []byte(benchSource(b.Name)))
		if err != nil {
			return nil, nil, err
		}
		e := symbol.NewEngine(p)
		exec.Of(p.IC())
		if _, err := e.Run(ctx, symbol.RunOptions{}); err != nil { // pool warm
			return nil, nil, err
		}
		start := time.Now()
		if _, err := e.Run(ctx, symbol.RunOptions{Dispatch: symbol.DispatchThreaded}); err != nil {
			return nil, nil, err
		}
		r.ThreadBuildMs = max(ms(time.Since(start))-r.ThreadedUs/1000, 0.001)
		build = append(build, r.ThreadBuildMs)
	}

	// Pool-miss cost: the first run of a fresh engine of the smallest
	// program minus its second run.
	var alloc []float64
	for i := 0; i < 5; i++ {
		e := symbol.NewEngine(q.ps["conc30"])
		start := time.Now()
		if _, err := e.Run(ctx, symbol.RunOptions{}); err != nil {
			return nil, nil, err
		}
		first := time.Since(start)
		start = time.Now()
		if _, err := e.Run(ctx, symbol.RunOptions{}); err != nil {
			return nil, nil, err
		}
		alloc = append(alloc, ms(first-time.Since(start)))
	}

	out := make([]*queryRow, 0, len(rows))
	for _, name := range sortedKeys(rows) {
		out = append(out, rows[name])
	}
	m := map[string]metric{
		"emu.fused.us_per_run":       {geomean(fused), "us"},
		"emu.steps_per_run":          {geomean(steps), "count"},
		"emu.fused.msteps_per_s":     {perSecond(float64(totalSteps)/1e6, totalRun), "Msteps/s"},
		"emu.legacy.us_per_run":      {geomean(legacy), "us"},
		"emu.nofuse.us_per_run":      {geomean(nofuse), "us"},
		"emu.threaded.us_per_run":    {geomean(threaded), "us"},
		"emu.threaded.build_ms":      {geomean(build), "ms"},
		"engine.pool_misses_per_kop": {float64(misses) * 1000 / float64(max(ops, 1)), "count"},
		"engine.dirty_pages_per_run": {geomean(dirty), "count"},
		"ic.state_alloc_ms":          {median(alloc), "ms"},
	}
	q.traced = nil
	return m, withGeomean(out), nil
}

// coreUs is the mean run time of prog on a warm engine at dispatch d, and
// the heap kilobytes a run allocates.
func (q *query) coreUs(ctx context.Context, prog string, d symbol.Dispatch, reps int) (us, allocKB float64, err error) {
	e := symbol.NewEngine(q.ps[prog])
	opts := symbol.RunOptions{Dispatch: d}
	if _, err := e.Run(ctx, opts); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		res, err := e.Run(ctx, opts)
		if err != nil {
			return 0, 0, err
		}
		if res.Output != q.o.expect[prog] {
			return 0, 0, fmt.Errorf("%s at %s: output %q, want %q", prog, d, res.Output, q.o.expect[prog])
		}
	}
	us = float64(time.Since(start).Microseconds()) / float64(reps)
	runtime.ReadMemStats(&after)
	return us, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(reps), nil
}

func benchSource(name string) string {
	b, err := benchprog.Get(name)
	if err != nil {
		panic(err) // names come from benchprog itself
	}
	return b.Source
}
