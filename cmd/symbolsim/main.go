// Command symbolsim runs a Prolog program (a file, or a named benchmark
// from the embedded Aquarius-style suite) through the whole SYMBOL
// pipeline: sequential emulation, profile-guided trace compaction, and
// cycle-level VLIW simulation at several machine widths.
//
// Usage:
//
//	symbolsim file.pl
//	symbolsim -bench qsort
//	symbolsim -bench qsort -units 1,2,3,4,5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"symbol"
	"symbol/internal/benchprog"
)

func main() {
	bench := flag.String("bench", "", "run a named embedded benchmark instead of a file")
	list := flag.Bool("list", false, "list embedded benchmarks")
	unitsFlag := flag.String("units", "1,2,3,5", "comma-separated unit counts to simulate")
	maxSteps := flag.Int64("maxsteps", 0, "resource budget: sequential ICI steps and VLIW cycles (0 = default limits)")
	timeout := flag.Duration("timeout", 0, "abort each run after this wall-clock duration (0 = none)")
	flag.Parse()

	runOpts := func() symbol.RunOptions {
		o := symbol.RunOptions{MaxSteps: *maxSteps, MaxCycles: *maxSteps}
		if *timeout > 0 {
			o.Deadline = time.Now().Add(*timeout)
		}
		return o
	}

	if *list {
		for _, n := range benchprog.Names() {
			fmt.Println(n)
		}
		return
	}

	var src []byte
	var name string
	switch {
	case *bench != "":
		b, err := benchprog.Get(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolsim:", err)
			os.Exit(1)
		}
		src, name = []byte(b.Source), b.Name
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolsim:", err)
			os.Exit(1)
		}
		src, name = data, flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: symbolsim [-units 1,2,3] (file.pl | -bench name | -list)")
		os.Exit(2)
	}

	var units []int
	for _, s := range strings.Split(*unitsFlag, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || u < 1 {
			fmt.Fprintf(os.Stderr, "symbolsim: bad unit count %q\n", s)
			os.Exit(2)
		}
		units = append(units, u)
	}

	ctx := context.Background()
	prog, err := symbol.Load(ctx, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbolsim:", err)
		os.Exit(1)
	}
	res, err := prog.Run(ctx, runOpts())
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbolsim:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: sequential run: success=%v, %d ICIs executed\n", name, res.Succeeded, res.Steps)
	if res.Output != "" {
		fmt.Printf("output:\n%s", res.Output)
	}
	seq, err := prog.SeqCycles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbolsim:", err)
		os.Exit(1)
	}
	fmt.Printf("\n%-14s %12s %10s %10s\n", "machine", "cycles", "speedup", "bubbles")
	fmt.Printf("%-14s %12d %10s %10s\n", "sequential", seq, "1.00", "-")

	show := func(label string, conf symbol.MachineConfig, opts ...symbol.ScheduleOption) {
		sched, err := prog.ScheduleWith(conf, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolsim:", err)
			os.Exit(1)
		}
		sim, err := sched.SimulateWith(runOpts())
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolsim:", err)
			os.Exit(1)
		}
		if sim.Output != res.Output || sim.Succeeded != res.Succeeded {
			fmt.Fprintf(os.Stderr, "symbolsim: %s: VLIW run diverged from sequential!\n", label)
			os.Exit(1)
		}
		fmt.Printf("%-14s %12d %10.2f %10d\n", label, sim.Cycles,
			symbol.Speedup(seq, sim.Cycles), sim.Bubble)
	}
	show("BAM-like", symbol.BAMMachine(), symbol.WithBasicBlocksOnly())
	for _, u := range units {
		show(fmt.Sprintf("%d-unit VLIW", u), symbol.DefaultMachine(u))
	}
}
