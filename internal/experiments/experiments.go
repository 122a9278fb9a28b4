// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5) from live runs of the reproduction pipeline:
//
//	Figure 2  — dynamic instruction-class mix
//	Figure 3  — Amdahl speed-up curves for the shared-memory model
//	Table 1   — basic-block vs trace-scheduling available concurrency
//	Table 2   — probability of faulty branch prediction (with Figure 4's
//	            distribution histogram)
//	Table 3   — cycles and speed-ups for the BAM stand-in and 1..5-unit
//	            VLIW configurations (Figure 6 plots the same data)
//	Table 4   — absolute execution times of the Symbol-3 prototype model
//	            against published Prolog systems
//	Table 5   — Symbol-3 speed-up vs a sequential machine with identical
//	            operation durations
//
// Every cycle count is measured by executing the benchmark — sequentially
// on the IntCode emulator, or on the VLIW simulator for compacted code —
// never estimated from static schedules.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/ic"
	"symbol/internal/stats"
)

// Runner caches compiled and profiled benchmarks across experiments. Each
// experiment computes its rows concurrently (see cells): the suite programs
// are independent, so only the order of the rows, not of the work, is
// fixed, and averages are summed in row order.
type Runner struct {
	mu    sync.Mutex
	cache map[string]*entry
}

type entry struct {
	once sync.Once
	err  error
	prog *symbol.Program
	prof *emu.Profile
	seq  int64 // sequential-machine cycles (mem/ctrl cost 2)
}

// NewRunner returns an empty runner.
func NewRunner() *Runner { return &Runner{cache: map[string]*entry{}} }

// get compiles and profiles a benchmark once. Concurrent callers asking
// for the same name wait for the one compile; different names proceed in
// parallel.
func (r *Runner) get(name string) (*entry, error) {
	r.mu.Lock()
	e, ok := r.cache[name]
	if !ok {
		e = &entry{}
		r.cache[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.err = e.load(name) })
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

func (e *entry) load(name string) error {
	b, err := benchprog.Get(name)
	if err != nil {
		return err
	}
	prog, err := symbol.Load(context.Background(), []byte(b.Source))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	prof, err := prog.Profile()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	seq, err := prog.SeqCycles()
	if err != nil {
		return err
	}
	e.prog, e.prof, e.seq = prog, prof, seq
	return nil
}

// cells calls cell(i, c, e) for every program names[i], with e its cached
// entry, and every c in [0, k): k independent pieces of its row, such as
// one schedule and simulation per machine configuration. The calls run on
// at most GOMAXPROCS workers, the cap the machine-state idle list keeps,
// so a table costs about its work divided by the workers, bounded below
// by its longest cell. Each call writes only its own part of the row. On
// failure cells returns the error of the first failing (i, c) in order,
// as a serial loop would.
func (r *Runner) cells(names []string, k int, cell func(i, c int, e *entry) error) error {
	n := len(names) * k
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < n; j = int(next.Add(1)) - 1 {
				e, err := r.get(names[j/k])
				if err == nil {
					err = cell(j/k, j%k, e)
				}
				errs[j] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SuiteNames returns the paper's Table 3 benchmark rows.
func SuiteNames() []string {
	var out []string
	for _, b := range benchprog.Suite() {
		out = append(out, b.Name)
	}
	return out
}

// Table2Names returns the paper's Table 2 rows (the suite plus crypt and
// query, as in the paper).
func Table2Names() []string {
	return []string{
		"conc30", "crypt", "divide10", "log10", "mu", "reverse", "ops8",
		"prover", "qsort", "queens_8", "query", "sendmore", "serialise",
		"tak", "times10", "zebra",
	}
}

// --- Figure 2 --------------------------------------------------------------

// Fig2Row is one benchmark's instruction mix.
type Fig2Row struct {
	Name string
	Mix  stats.Mix
}

// Figure2 holds the per-benchmark mixes and the suite average fractions.
type Figure2 struct {
	Rows    []Fig2Row
	Average [ic.NumClasses]float64
}

// Figure2Mix measures the dynamic instruction-class frequencies.
func (r *Runner) Figure2Mix(names []string) (*Figure2, error) {
	rows := make([]Fig2Row, len(names))
	err := r.cells(names, 1, func(i, _ int, e *entry) error {
		rows[i] = Fig2Row{Name: names[i], Mix: stats.ComputeMix(e.prog.IC(), e.prof)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mixes := make([]stats.Mix, len(rows))
	for i, row := range rows {
		mixes[i] = row.Mix
	}
	return &Figure2{Rows: rows, Average: stats.AverageMix(mixes)}, nil
}

// Render formats Figure 2 as text.
func (f *Figure2) Render() string {
	s := "Figure 2 — dynamic instruction-class mix (all operations duration 1)\n\n"
	s += fmt.Sprintf("%-12s %8s %8s %8s %8s %8s\n",
		"benchmark", "alu", "memory", "move", "control", "sys")
	for _, row := range f.Rows {
		s += fmt.Sprintf("%-12s", row.Name)
		for c := ic.Class(0); c < ic.NumClasses; c++ {
			s += fmt.Sprintf(" %7.1f%%", 100*row.Mix.Fraction(c))
		}
		s += "\n"
	}
	s += fmt.Sprintf("%-12s", "average")
	for c := ic.Class(0); c < ic.NumClasses; c++ {
		s += fmt.Sprintf(" %7.1f%%", 100*f.Average[c])
	}
	s += "\n"
	return s
}

// MemoryFraction returns the averaged memory share (the paper's ~32%).
func (f *Figure2) MemoryFraction() float64 { return f.Average[ic.ClassMemory] }

// ControlFraction returns the averaged control share (the paper's >15%).
func (f *Figure2) ControlFraction() float64 { return f.Average[ic.ClassControl] }

// --- Figure 3 --------------------------------------------------------------

// Figure3 holds the Amdahl curves computed from the measured mix.
type Figure3 struct {
	MemFraction float64
	Points      []stats.AmdahlPoint
	Limit       float64
}

// Figure3Amdahl evaluates the speed-up bound curves.
func (r *Runner) Figure3Amdahl(names []string) (*Figure3, error) {
	f2, err := r.Figure2Mix(names)
	if err != nil {
		return nil, err
	}
	mem := f2.MemoryFraction()
	var enh []float64
	for e := 1.0; e <= 16; e += 0.5 {
		enh = append(enh, e)
	}
	return &Figure3{
		MemFraction: mem,
		Points:      stats.AmdahlCurves(mem, enh),
		Limit:       stats.AmdahlLimit(1 - mem),
	}, nil
}

// Render formats Figure 3 as a table of curve points.
func (f *Figure3) Render() string {
	s := fmt.Sprintf("Figure 3 — Amdahl bound; measured memory fraction %.3f (asymptote %.2f)\n\n",
		f.MemFraction, f.Limit)
	s += fmt.Sprintf("%12s %18s %20s\n", "enhancement", "memory separate", "memory overlapped")
	for _, p := range f.Points {
		s += fmt.Sprintf("%12.1f %18.3f %20.3f\n", p.Enhancement, p.Separate, p.Overlapped)
	}
	return s
}
