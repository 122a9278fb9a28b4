// Command benchmark measures SYMBOL end to end on four workloads and, in a
// separate traced run, layer by layer. It prints one JSON object as the
// last line of its output; see README.md for the workloads, the metrics and
// the command that regenerates every number.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"symbol/internal/benchprog"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's verdict, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload between its set-up and the end of the run.
type bench interface {
	// pass runs one pass of the workload's fixed operation list, in the
	// order rng gives, recording every operation in ph and, when tr is
	// non-nil, spans around each call into a layer.
	pass(ctx context.Context, rng *rand.Rand, ph *phase, tr *tracer) error
	// layers derives the per-layer metrics this workload owns from the
	// spans of its traced passes, running any extra probes they need, and
	// returns the per-program rows of the traced report.
	layers(ctx context.Context, tr *tracer) (map[string]metric, any, error)
	close()
}

// workload names a bench and how to build it.
type workload struct {
	name string
	// nominalPass is the wall time of one pass on the reference machine
	// (2 CPUs, 8 GB). A run makes round(seconds/nominalPass) passes, so the
	// operation list, and with it the rank of every percentile, is fixed
	// for a given --seconds.
	nominalPass time.Duration
	// collectEachPass collects the heap before every pass, not only before
	// the first. Serve does not: collections empty the engines' state
	// pools, and a server is not collected between requests. Instead, after
	// the collection before timing, serve runs one untimed pass, so the
	// pools refill outside the timed phase.
	collectEachPass bool
	setup           func(ctx context.Context, o *options) (bench, error)
}

var workloads = []workload{
	{"cold-start", 7500 * time.Millisecond, true, setupColdStart},
	{"query", 5500 * time.Millisecond, true, setupQuery},
	{"paper-sweep", 7 * time.Second, true, setupSweep},
	{"serve", 800 * time.Millisecond, false, setupServe},
}

// options are the knobs a test may turn; a benchmark run uses the defaults.
type options struct {
	// expect maps a corpus program to its expected output. It starts as
	// the benchprog Expect strings; the smoke test corrupts one entry to
	// prove that a wrong output counts as a failed operation.
	expect map[string]string
	// opsPerPass, when positive, truncates every pass to its first
	// opsPerPass operations (smoke tests only; pass-level checks that need
	// a whole pass are then skipped).
	opsPerPass int
}

func defaultOptions() *options {
	o := &options{expect: map[string]string{}}
	for _, b := range benchprog.All() {
		o.expect[b.Name] = b.Expect
	}
	return o
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	passes   int // 0: derive from seconds
	opts     *options
}

// tracedPasses bounds the passes of each phase of a traced run.
const tracedPasses = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// probe is one other workload's traced pass inside a traced run.
type probe struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// report is the traced run's record, written next to the build.
type report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Passes   int               `json:"passes"`
	Samples  int               `json:"samples"`
	TailPct  float64           `json:"tail_percentile"`
	TailOp   string            `json:"tail_operation"`
	Untraced map[string]metric `json:"untraced_end_to_end"`
	Traced   map[string]metric `json:"traced_end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	Rows     map[string]any    `json:"rows"`
	Spans    []span            `json:"spans"`
	// Probes are the one traced pass of each other workload that supplies
	// the per-layer metrics it owns. They check their outputs like any
	// pass, but the run's verdict covers its own workload only.
	Probes map[string]probe `json:"probes"`
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func passRNG(seed uint64, pass int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(pass)))
}

// setUp builds the workload setupReps times and returns the last bench with
// the median set-up time.
func setUp(ctx context.Context, w workload, o *options) (bench, time.Duration, error) {
	var b bench
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		start := time.Now()
		nb, err := w.setup(ctx, o)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		b = nb
	}
	return b, time.Duration(median(secs) * float64(time.Second)), nil
}

// runPasses runs passes passes of b into a fresh phase and returns it with
// the live heap left after a final collection. Every pass starts with the
// resident high-water mark reset to the current resident set, so each pass
// reports its own peak.
func runPasses(ctx context.Context, w workload, b bench, seed uint64, passes int, tr *tracer) (*phase, uint64, error) {
	ph := &phase{}
	ph.settle()
	if !w.collectEachPass {
		if err := b.pass(ctx, passRNG(seed, passes), &phase{}, nil); err != nil {
			return nil, 0, err
		}
	}
	for p := 0; p < passes; p++ {
		if p > 0 && w.collectEachPass {
			// Twice: the first collection moves the previous pass's pooled
			// states to the pools' victim caches, the second frees them.
			// The freed memory stays mapped for the next pass to reuse.
			runtime.GC()
			runtime.GC()
		}
		resetPeakRSS()
		ops, busy, cpu := len(ph.samples), ph.busy, ph.cpu
		if err := b.pass(ctx, passRNG(seed, p), ph, tr); err != nil {
			return nil, 0, err
		}
		ph.passes = append(ph.passes, passStat{
			ops: len(ph.samples) - ops, busy: ph.busy - busy, cpu: ph.cpu - cpu, peakMB: peakRSSMB(),
		})
	}
	runtime.GC()
	return ph, liveHeap(), nil
}

func run(ctx context.Context, cfg config) (*result, *report, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	passes := cfg.passes
	if passes <= 0 {
		passes = max(1, int(float64(cfg.seconds)*float64(time.Second)/float64(w.nominalPass)+0.5))
	}
	if cfg.trace {
		// A traced run makes its passes twice, untraced and traced, and
		// then probes the other workloads; two passes each keep it short.
		passes = min(passes, tracedPasses)
	}
	b, setup, err := setUp(ctx, w, cfg.opts)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()

	ph, heapEnd, err := runPasses(ctx, w, b, cfg.seed, passes, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: len(ph.samples), Failed: ph.failed, Metrics: endToEnd(ph, setup)}
	if !cfg.trace {
		res.Correct = res.Failed == 0
		return res, nil, nil
	}

	// Traced run: the same passes again with spans, then one traced pass of
	// every other workload for the per-layer metrics it owns.
	tr := newTracer()
	tph, _, err := runPasses(ctx, w, b, cfg.seed, passes, tr)
	if err != nil {
		return nil, nil, err
	}
	ls := summarize(ph.samples)
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Passes: passes, Samples: ls.n,
		TailPct: ls.tailPct, TailOp: ls.tailKind,
		Untraced: res.Metrics, Traced: endToEnd(tph, setup),
		PerLayer: runtimeLayer(ph, heapEnd), Rows: map[string]any{},
		Probes: map[string]probe{},
	}
	res.Attempted += len(tph.samples)
	res.Failed += tph.failed
	perOp := func(p *phase) float64 { return ms(p.busy) / float64(len(p.samples)) }
	rep.PerLayer["trace.overhead_pct"] = metric{100 * (perOp(tph)/perOp(ph) - 1), "%"}
	own, rows, err := b.layers(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range own {
		rep.PerLayer[k] = v
	}
	rep.Rows[w.name] = rows
	rep.Spans = tr.spans

	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		ob, err := other.setup(ctx, cfg.opts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", other.name, err)
		}
		otr := newTracer()
		oph, _, err := runPasses(ctx, other, ob, cfg.seed, 1, otr)
		if err == nil {
			own, rows, err = ob.layers(ctx, otr)
		}
		ob.close()
		runtime.GC()
		if err != nil {
			return nil, nil, err
		}
		for k, v := range own {
			rep.PerLayer[k] = v
		}
		rep.Rows[other.name] = rows
		rep.Probes[other.name] = probe{Attempted: len(oph.samples), Failed: oph.failed}
		if oph.failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s probe pass: %d of %d operations failed\n", other.name, oph.failed, len(oph.samples))
		}
	}
	res.Metrics = rep.PerLayer
	res.Correct = res.Failed == 0
	return res, rep, nil
}

// failureLogLimit bounds the failure reasons a run prints.
const failureLogLimit = 20

var failuresLogged int

// logFailure prints why an operation failed to standard error, for the
// first few failures of a run.
func logFailure(format string, args ...any) {
	if failuresLogged++; failuresLogged <= failureLogLimit {
		fmt.Fprintf(os.Stderr, "benchmark: failed: "+format+"\n", args...)
	}
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", rep.Workload, rep.Seed))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: traced report written to %s\n", path)
	return nil
}

func main() {
	name := flag.String("workload", "", "cold-start, query, paper-sweep or serve")
	seed := flag.Uint64("seed", 1, "seed for the operation order and request mix")
	seconds := flag.Int("seconds", 30, "nominal measuring time; sets the number of passes")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	reportDir := flag.String("report", ".bench_build/reports", "directory for the traced run's report")
	flag.Parse()

	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		opts: defaultOptions(),
	}
	res, rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if rep != nil {
		if err := writeReport(*reportDir, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing report:", err)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
