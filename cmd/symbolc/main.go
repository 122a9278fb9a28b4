// Command symbolc is the SYMBOL compiler driver: it compiles a Prolog
// source file (which must define main/0), prints the requested
// intermediate representations, and can emit a versioned binary snapshot
// for instant loading by symbol.Load / symbolserve.
//
// Usage:
//
//	symbolc [-bam] [-ic] [-vliw] [-units n] [-bb] [-o prog.sym] [-profile] file.pl
//
// With -vliw the program is profiled (one sequential run) and compacted for
// an n-unit machine before listing. With -o the compiled program (ICI code,
// atom table, embedded source) is written as a snapshot; add -profile to
// run the profiler once and embed the execution profile so scheduling
// consumers skip the profiling run too.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"symbol"
)

func main() {
	bam := flag.Bool("bam", false, "print the BAM code produced by the front end")
	icl := flag.Bool("ic", false, "print the Intermediate Code")
	vl := flag.Bool("vliw", false, "profile, compact and print the VLIW schedule")
	units := flag.Int("units", 3, "number of units for -vliw")
	bb := flag.Bool("bb", false, "basic-block compaction only (with -vliw)")
	out := flag.String("o", "", "write a binary snapshot to `file` (conventionally .sym)")
	prof := flag.Bool("profile", false, "embed the execution profile in the -o snapshot (runs the program once)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"usage: symbolc [-bam] [-ic] [-vliw] [-units n] [-bb] [-o prog.sym] [-profile] file.pl")
		flag.PrintDefaults()
	}
	flag.Parse()

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbolc:", err)
		os.Exit(1)
	}
	prog, err := symbol.Load(context.Background(), src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbolc:", err)
		os.Exit(1)
	}
	if u := prog.Undefined(); len(u) > 0 {
		fmt.Fprintf(os.Stderr, "symbolc: warning: undefined predicates: %v\n", u)
	}
	if *out != "" {
		if *prof {
			if _, err := prog.Profile(); err != nil {
				fmt.Fprintln(os.Stderr, "symbolc: profile:", err)
				os.Exit(1)
			}
		}
		data := prog.Snapshot()
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "symbolc:", err)
			os.Exit(1)
		}
		info, err := symbol.SnapshotInfo(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolc:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d bytes (format v%d)\n", *out, len(data), info.Version)
		for _, s := range info.Sections {
			fmt.Printf("  %-8s %7d bytes\n", s.Name, s.Bytes)
		}
		if !*bam && !*icl && !*vl {
			return
		}
	}
	if !*bam && !*icl && !*vl {
		*icl = true
	}
	if *bam {
		fmt.Println("; BAM code")
		fmt.Println(prog.BAMListing())
	}
	if *icl {
		fmt.Printf("; Intermediate Code (%d ICIs)\n", prog.CodeSize())
		fmt.Println(prog.ICListing())
	}
	if *vl {
		sched, err := prog.ScheduleWith(symbol.DefaultMachine(*units),
			symbol.WithScheduleOptions(symbol.ScheduleOptions{BasicBlocksOnly: *bb}))
		if err != nil {
			fmt.Fprintln(os.Stderr, "symbolc:", err)
			os.Exit(1)
		}
		fmt.Printf("; VLIW schedule: %d words, %d ops, avg compaction unit %.2f ops\n",
			sched.Words(), sched.Ops(), sched.AvgTraceLen())
		fmt.Println(sched.Listing())
	}
}
