// Command symbolbench regenerates the paper's tables and figures from live
// runs of the reproduction pipeline, and benchmarks the concurrent query
// engine against the allocate-per-run baseline.
//
// Usage:
//
//	symbolbench                 # everything
//	symbolbench -exp table3     # one experiment
//	symbolbench -exp fig2,fig3  # a comma-separated subset
//	symbolbench -parallel 4     # pooled-engine throughput vs baseline
//	symbolbench -parallel 4 -bench queens_8 -runs 64
//	symbolbench -emubench       # emulator steps/sec: legacy vs nofuse vs fused
//	symbolbench -emubench -dispatch legacy -benchjson BENCH_baseline.json
//	symbolbench -emubench -statsjson stats.json   # per-mode execution stats
//	symbolbench -emubench -dispatch fused -compare BENCH_fused.json -tolerance 5
//	symbolbench -smoke          # fail if fused lost to nofuse
//	symbolbench -emubench -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: fig2, fig3, table1, table2 (includes fig4), table3
// (includes fig6), table4, table5.
//
// With -parallel N the command switches to engine-benchmark mode: it
// compiles one benchmark program (-bench, default queens_8), runs it -runs
// times serially with a fresh machine per query (today's Program.Run
// path), then -runs times through a shared symbol.Engine driven by N
// workers recycling pooled machine state, and reports queries/sec and
// allocs/query for both paths.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run (comma separated): fig2,fig3,table1,table2,fig4,table3,fig6,table4,table5,all")
	parallel := flag.Int("parallel", 0, "engine-benchmark mode: drive a pooled symbol.Engine with this many workers (0 = run the paper experiments)")
	benchName := flag.String("bench", "queens_8", "benchmark program for -parallel and -emubench modes")
	runs := flag.Int("runs", 32, "queries per path in -parallel mode")
	emubench := flag.Bool("emubench", false, "emulator-throughput mode: measure ICI steps/sec on -bench under -dispatch")
	dispatch := flag.String("dispatch", "", "execution modes for -emubench (comma separated): legacy, nofuse, fused, all")
	emuruns := flag.Int("emuruns", 5, "timed runs per mode in -emubench mode")
	benchJSON := flag.String("benchjson", "", "write -emubench results as JSON to this file")
	statsJSON := flag.String("statsjson", "", "with -emubench: write one execution's full Stats per mode as JSON to this file")
	compare := flag.String("compare", "", "with -emubench: committed -benchjson baseline; fail if best steps/s drops below it by more than -tolerance")
	tolerance := flag.Float64("tolerance", 5, "allowed throughput drop vs -compare baseline, in percent")
	smoke := flag.Bool("smoke", false, "with -emubench: measure nofuse and fused; fail if fusion lost throughput")
	snapbench := flag.Bool("snapbench", false, "snapshot mode: measure snapshot sizes and cold-start load vs compile across the corpus")
	snapReps := flag.Int("snapreps", 9, "timed repetitions per path in -snapbench mode")
	speedupFloor := flag.Float64("speedupfloor", 0, "with -snapbench: minimum median cold-start speedup (0 disables the gate)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	modes := *dispatch
	if modes == "" {
		modes = "all"
	}

	if *snapbench {
		if err := benchSnapshots(*snapReps, *benchJSON, *compare, *tolerance, *speedupFloor); err != nil {
			fmt.Fprintln(os.Stderr, "symbolbench:", err)
			os.Exit(1)
		}
		return
	}

	if *emubench || *smoke {
		err := withProfiles(*cpuprofile, *memprofile, func() error {
			return benchEmuSteps(*benchName, modes, *emuruns, *benchJSON, *smoke, *statsJSON, *compare, *tolerance)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolbench:", err)
			os.Exit(1)
		}
		return
	}

	if *parallel > 0 {
		err := withProfiles(*cpuprofile, *memprofile, func() error {
			return benchEngine(*benchName, *parallel, *runs)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolbench:", err)
			os.Exit(1)
		}
		return
	}

	if err := experiments.Write(os.Stdout, strings.Split(*exp, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "symbolbench:", err)
		os.Exit(1)
	}
}

// measure runs fn, returning wall time and the per-process malloc count
// and allocated bytes it incurred. The deltas are process-global, which is
// exactly the quantity that matters for GC pressure under concurrent load.
func measure(fn func() error) (time.Duration, uint64, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// benchEngine compares the allocate-per-run baseline with the pooled
// concurrent engine on one benchmark program.
func benchEngine(name string, workers, runs int) error {
	b, err := benchprog.Get(name)
	if err != nil {
		return err
	}
	prog, err := symbol.Load(context.Background(), []byte(b.Source))
	if err != nil {
		return err
	}
	check := func(res *symbol.Result, err error) error {
		if err != nil {
			return err
		}
		if !res.Succeeded || res.Output != b.Expect {
			return fmt.Errorf("%s: wrong answer (ok=%v output=%q)", name, res.Succeeded, res.Output)
		}
		return nil
	}

	// The baseline runs the emulator with no State, so every run allocates
	// and faults in a fresh memory image; the engine's runs share the
	// process-wide idle list.
	baseRun := func() error {
		res, err := emu.Run(prog.IC(), emu.Options{})
		if err != nil {
			return err
		}
		return check(&symbol.Result{Succeeded: res.Status == 0, Output: res.Output}, nil)
	}

	// Warm-up: page in the code path and validate the answer once per path.
	if err := baseRun(); err != nil {
		return err
	}
	eng := symbol.NewEngine(prog)
	ctx := context.Background()
	if err := check(eng.Run(ctx, symbol.RunOptions{})); err != nil {
		return err
	}

	// Baseline: serial, one fresh state per run.
	baseT, baseAllocs, baseBytes, err := measure(func() error {
		for i := 0; i < runs; i++ {
			if err := baseRun(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Pooled engine driven by `workers` goroutines sharing the idle list.
	poolT, poolAllocs, poolBytes, err := measure(func() error {
		var next atomic.Int64
		var firstErr atomic.Value
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for int(next.Add(1)) <= runs {
					if err := check(eng.Run(ctx, symbol.RunOptions{})); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}

	qps := func(d time.Duration) float64 { return float64(runs) / d.Seconds() }
	baseQPS, poolQPS := qps(baseT), qps(poolT)
	n := uint64(runs)
	fmt.Printf("engine benchmark: %s, %d queries\n", name, runs)
	fmt.Printf("  serial baseline (fresh state/run): %8.2f queries/s  %6d allocs/query  %11d bytes/query\n",
		baseQPS, baseAllocs/n, baseBytes/n)
	fmt.Printf("  pooled engine   (%2d workers):      %8.2f queries/s  %6d allocs/query  %11d bytes/query\n",
		workers, poolQPS, poolAllocs/n, poolBytes/n)
	fmt.Printf("  speedup: %.2fx queries/s, %.1fx fewer allocs/query, %.1fx fewer bytes/query\n",
		poolQPS/baseQPS,
		float64(baseAllocs)/float64(max(poolAllocs, 1)),
		float64(baseBytes)/float64(max(poolBytes, 1)))
	m := eng.Metrics()
	fmt.Printf("  engine metrics: %d started, %d succeeded, pool %d gets / %d misses, %d pages reset, %d Msteps total\n",
		m.Started, m.Succeeded, m.PoolGets, m.PoolMisses, m.DirtyPagesReset, m.Totals.Steps/1e6)
	return nil
}
