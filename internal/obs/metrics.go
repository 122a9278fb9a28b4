package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"symbol/internal/fault"
)

// Histogram bucket layouts. Both are fixed at compile time so recording is
// a loop-free index computation on atomics, with no allocation and no lock.
// Latency buckets are powers of two in microseconds up to ~0.5 s; step
// buckets are powers of four up to ~10^9 ICIs. The last (implicit) bucket
// of each catches everything beyond the top bound.
const (
	latencyBuckets = 20 // 1µs, 2µs, ... 2^19µs
	stepBuckets    = 16 // 1, 4, 16, ... 4^15
)

// Metrics is the engine-wide aggregation: lock-free atomic counters updated
// by concurrently completing runs, read via Snapshot. The zero value is
// ready to use.
type Metrics struct {
	started    atomic.Int64
	succeeded  atomic.Int64
	noSolution atomic.Int64
	rejected   atomic.Int64
	inFlight   atomic.Int64

	faults [fault.NumKinds]atomic.Int64

	poolGets        atomic.Int64
	poolMisses      atomic.Int64
	dirtyPagesReset atomic.Int64

	totals  statsAtomic
	latency [latencyBuckets + 1]atomic.Int64
	steps   [stepBuckets + 1]atomic.Int64
}

// statsAtomic mirrors Stats field by field so completed runs can be folded
// in without a lock, with the same Add semantics (sums, max for the
// high-water marks).
type statsAtomic struct {
	steps, cycles                                 atomic.Int64
	mem, alu, move, control, sys                  atomic.Int64
	heapHigh, envHigh, cpHigh, trailHigh, pdlHigh atomic.Int64
	choicePoints, trailUndos                      atomic.Int64
	faultsRaised, faultsCaught                    atomic.Int64
	wall                                          atomic.Int64
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (t *statsAtomic) add(s *Stats) {
	t.steps.Add(s.Steps)
	t.cycles.Add(s.Cycles)
	t.mem.Add(s.MemOps)
	t.alu.Add(s.ALUOps)
	t.move.Add(s.MoveOps)
	t.control.Add(s.ControlOps)
	t.sys.Add(s.SysOps)
	atomicMax(&t.heapHigh, s.HeapHigh)
	atomicMax(&t.envHigh, s.EnvHigh)
	atomicMax(&t.cpHigh, s.CPHigh)
	atomicMax(&t.trailHigh, s.TrailHigh)
	atomicMax(&t.pdlHigh, s.PDLHigh)
	t.choicePoints.Add(s.ChoicePoints)
	t.trailUndos.Add(s.TrailUndos)
	t.faultsRaised.Add(s.FaultsRaised)
	t.faultsCaught.Add(s.FaultsCaught)
	t.wall.Add(int64(s.Wall))
}

func (t *statsAtomic) load() Stats {
	return Stats{
		Steps: t.steps.Load(), Cycles: t.cycles.Load(),
		MemOps: t.mem.Load(), ALUOps: t.alu.Load(), MoveOps: t.move.Load(),
		ControlOps: t.control.Load(), SysOps: t.sys.Load(),
		HeapHigh: t.heapHigh.Load(), EnvHigh: t.envHigh.Load(),
		CPHigh: t.cpHigh.Load(), TrailHigh: t.trailHigh.Load(),
		PDLHigh:      t.pdlHigh.Load(),
		ChoicePoints: t.choicePoints.Load(), TrailUndos: t.trailUndos.Load(),
		FaultsRaised: t.faultsRaised.Load(), FaultsCaught: t.faultsCaught.Load(),
		Wall: time.Duration(t.wall.Load()),
	}
}

// RecordStart notes a run entering the executor. Balanced by exactly one
// RecordDone or RecordFailed.
func (m *Metrics) RecordStart() {
	m.started.Add(1)
	m.inFlight.Add(1)
}

// RecordDone folds a completed run's stats in. succeeded distinguishes a
// proven goal from a clean no-solution halt.
func (m *Metrics) RecordDone(s *Stats, succeeded bool) {
	m.inFlight.Add(-1)
	if succeeded {
		m.succeeded.Add(1)
	} else {
		m.noSolution.Add(1)
	}
	m.totals.add(s)
	m.latency[bucketPow2(int64(s.Wall)/int64(time.Microsecond), latencyBuckets)].Add(1)
	m.steps[bucketPow4(s.Steps, stepBuckets)].Add(1)
}

// RecordFailed notes a run that ended in an error, bucketed by fault kind
// (fault.None for non-fault errors). wall is how long the run took before
// failing; a positive value lands in the latency histogram so that load
// monitors still see the backend's pace when every query is faulting —
// pass 0 when no run was attempted.
func (m *Metrics) RecordFailed(k fault.Kind, wall time.Duration) {
	m.inFlight.Add(-1)
	m.faults[k].Add(1)
	if wall > 0 {
		m.latency[bucketPow2(int64(wall)/int64(time.Microsecond), latencyBuckets)].Add(1)
	}
}

// RecordRejected notes a run refused before it started (invalid options).
func (m *Metrics) RecordRejected() { m.rejected.Add(1) }

// RecordPoolGet notes a machine-state checkout from the idle list.
func (m *Metrics) RecordPoolGet() { m.poolGets.Add(1) }

// RecordPoolMiss notes a checkout that had to allocate a fresh
// multi-megaword state (the idle list was empty). A miss is always also a
// get, so PoolMisses <= PoolGets.
func (m *Metrics) RecordPoolMiss() { m.poolMisses.Add(1) }

// RecordReset notes pages zeroed while recycling a state into the idle list.
func (m *Metrics) RecordReset(pages int) { m.dirtyPagesReset.Add(int64(pages)) }

// bucketPow2 returns the histogram slot for v under power-of-two bounds
// 1, 2, 4, ...: slot i holds v <= 2^i, the last slot holds the rest.
func bucketPow2(v int64, n int) int {
	for i := 0; i < n; i++ {
		if v <= 1<<uint(i) {
			return i
		}
	}
	return n
}

func bucketPow4(v int64, n int) int {
	for i := 0; i < n; i++ {
		if v <= 1<<uint(2*i) {
			return i
		}
	}
	return n
}

// Histogram is a fixed-bound counting histogram. Counts has one more entry
// than Bounds: Counts[i] is the number of observations <= Bounds[i], and
// the final entry counts observations beyond the last bound.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is a point-in-time copy of engine metrics, JSON-serializable
// (for expvar) and renderable as Prometheus text (WriteTo). Totals follows
// the Stats.Add rule, so it matches the Add-sum of every per-run Stats the
// engine has recorded.
type Snapshot struct {
	Started    int64 `json:"started"`
	Succeeded  int64 `json:"succeeded"`
	NoSolution int64 `json:"no_solution"`
	Rejected   int64 `json:"rejected"`
	InFlight   int64 `json:"in_flight"`

	Faults map[string]int64 `json:"faults,omitempty"` // by fault-kind name, error-terminated runs

	PoolGets        int64 `json:"pool_gets"`
	PoolMisses      int64 `json:"pool_misses"`
	DirtyPagesReset int64 `json:"dirty_pages_reset"`

	Totals Stats `json:"totals"`

	LatencySeconds Histogram `json:"latency_seconds"`
	StepsPerRun    Histogram `json:"steps_per_run"`
}

// Snapshot copies the current counter values. Individual counters are read
// atomically; the snapshot as a whole is not a single consistent cut while
// runs are completing concurrently, but any quiescent moment yields exact
// totals.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Started:    m.started.Load(),
		Succeeded:  m.succeeded.Load(),
		NoSolution: m.noSolution.Load(),
		Rejected:   m.rejected.Load(),
		InFlight:   m.inFlight.Load(),

		PoolGets:        m.poolGets.Load(),
		PoolMisses:      m.poolMisses.Load(),
		DirtyPagesReset: m.dirtyPagesReset.Load(),

		Totals: m.totals.load(),
	}
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if n := m.faults[k].Load(); n > 0 {
			if s.Faults == nil {
				s.Faults = map[string]int64{}
			}
			s.Faults[k.String()] = n
		}
	}
	s.LatencySeconds = loadHistogram(m.latency[:], 1, 1e6)
	s.StepsPerRun = loadHistogram(m.steps[:], 2, 1)
	return s
}

// loadHistogram copies a bucket-counter array into a Histogram. The last
// counter is the overflow bucket; bound i is 2^(shift*i)/div.
func loadHistogram(counts []atomic.Int64, shift uint, div float64) Histogram {
	n := len(counts) - 1
	h := Histogram{Bounds: make([]float64, n), Counts: make([]int64, n+1)}
	for i := range counts {
		if i < n {
			h.Bounds[i] = float64(int64(1)<<(shift*uint(i))) / div
		}
		h.Counts[i] = counts[i].Load()
	}
	return h
}

// Merge folds o into s: counters and histogram buckets add, Totals follows
// the Stats.Add rule (sums, max for high-water marks). It lets a server
// expose one combined symbol_* metric family across several engines (one
// per knowledge base) without duplicate series.
func (s *Snapshot) Merge(o Snapshot) {
	s.Started += o.Started
	s.Succeeded += o.Succeeded
	s.NoSolution += o.NoSolution
	s.Rejected += o.Rejected
	s.InFlight += o.InFlight
	for name, v := range o.Faults {
		if s.Faults == nil {
			s.Faults = map[string]int64{}
		}
		s.Faults[name] += v
	}
	s.PoolGets += o.PoolGets
	s.PoolMisses += o.PoolMisses
	s.DirtyPagesReset += o.DirtyPagesReset
	s.Totals.Add(&o.Totals)
	mergeHist := func(dst *Histogram, src Histogram) {
		if len(dst.Counts) == 0 {
			dst.Bounds = append([]float64(nil), src.Bounds...)
			dst.Counts = append([]int64(nil), src.Counts...)
			return
		}
		if len(dst.Counts) != len(src.Counts) {
			return
		}
		for i := range src.Counts {
			dst.Counts[i] += src.Counts[i]
		}
	}
	mergeHist(&s.LatencySeconds, o.LatencySeconds)
	mergeHist(&s.StepsPerRun, o.StepsPerRun)
}

// InFlight returns the number of runs executing right now: one atomic
// load, cheap enough to poll.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// promName sanitizes a label value-ish name fragment into a metric-name
// safe token (fault kinds contain spaces and hyphens).
func promName(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// WriteTo renders the snapshot in the Prometheus text exposition format
// (counters, gauges and two cumulative histograms under the symbol_
// prefix), so an embedder can mount it on any HTTP mux.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	p := cw.printf
	counter := func(name, help string, v int64) {
		p("# HELP symbol_%s %s\n# TYPE symbol_%s counter\nsymbol_%s %d\n", name, help, name, name, v)
	}
	counter("queries_started_total", "Runs entering an executor.", s.Started)
	counter("queries_succeeded_total", "Runs halting with a proven goal.", s.Succeeded)
	counter("queries_no_solution_total", "Runs halting cleanly without a solution.", s.NoSolution)
	counter("queries_rejected_total", "Runs refused before starting (invalid options).", s.Rejected)
	p("# HELP symbol_queries_in_flight Runs currently executing.\n# TYPE symbol_queries_in_flight gauge\nsymbol_queries_in_flight %d\n", s.InFlight)

	p("# HELP symbol_queries_failed_total Runs terminated by an error, by fault kind.\n# TYPE symbol_queries_failed_total counter\n")
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if v, ok := s.Faults[k.String()]; ok {
			p("symbol_queries_failed_total{kind=%q} %d\n", promName(k.String()), v)
		}
	}

	counter("pool_gets_total", "Machine-state checkouts from the pool.", s.PoolGets)
	counter("pool_misses_total", "Checkouts that allocated a fresh state.", s.PoolMisses)
	counter("dirty_pages_reset_total", "Memory pages zeroed while recycling states.", s.DirtyPagesReset)

	counter("steps_total", "Executed ICIs across all completed runs.", s.Totals.Steps)
	counter("cycles_total", "VLIW cycles across all completed runs.", s.Totals.Cycles)
	counter("ops_memory_total", "Memory-class ICIs executed.", s.Totals.MemOps)
	counter("ops_alu_total", "ALU-class ICIs executed.", s.Totals.ALUOps)
	counter("ops_move_total", "Move-class ICIs executed.", s.Totals.MoveOps)
	counter("ops_control_total", "Control-class ICIs executed.", s.Totals.ControlOps)
	counter("ops_sys_total", "Sys-class ICIs executed.", s.Totals.SysOps)
	counter("choice_points_total", "Choice points created.", s.Totals.ChoicePoints)
	counter("trail_undos_total", "Trail entries undone on backtrack.", s.Totals.TrailUndos)
	counter("faults_raised_total", "Machine faults raised inside runs.", s.Totals.FaultsRaised)
	counter("faults_caught_total", "Faults converted to catchable balls.", s.Totals.FaultsCaught)

	cw.histogram("symbol_run_latency_seconds", "Wall-clock latency of finished runs, faulted included.", s.LatencySeconds)
	cw.histogram("symbol_run_steps", "Executed ICIs per completed run.", s.StepsPerRun)
	return cw.n, cw.err
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

// printf writes formatted text unless an earlier write failed.
func (c *countWriter) printf(format string, args ...any) {
	if c.err == nil {
		fmt.Fprintf(c, format, args...)
	}
}

// histogram renders h as the cumulative Prometheus histogram name.
func (c *countWriter) histogram(name, help string, h Histogram) {
	c.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		c.printf("%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.Counts[len(h.Bounds)]
	c.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	c.printf("%s_count %d\n", name, cum)
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
