// Command symbol is the SYMBOL toolchain: it compiles Prolog to BAM and
// Intermediate Code, answers queries on the sequential emulator, trace-
// schedules the profiled code and simulates the VLIW, and serves knowledge
// bases over HTTP.
//
// Usage:
//
//	symbol run [-q goal] [-solutions n] [-stats] [-events n] (file ... | -bench name)
//	symbol compile [-bam] [-ic] [-vliw] [-units n] [-bb] [-o prog.sym] [-profile] (file | -bench name)
//	symbol sim [-units 1,2,3,5] (file | -bench name | -list)
//	symbol serve [-addr :8080] [-snapshot-dir dir] [-tenants file] (file ... | -bench all)
//
// Every file is Prolog source or a snapshot written by compile -o; both
// load through symbol.Load. -bench names a program of the embedded corpus
// instead (serve also takes all). run, sim and serve share -max-steps and
// -timeout; compile and sim share -units.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// A second signal falls through to the default handler and kills.
	context.AfterFunc(ctx, stop)
	code := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// errUsage marks a command line the flag set has already reported.
var errUsage = errors.New("usage")

type command func(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error

var commands = map[string]command{
	"run":     cmdRun,
	"compile": cmdCompile,
	"sim":     cmdSim,
	"serve":   cmdServe,
}

// run executes one subcommand and returns the process exit status: 0 on
// success, 1 on failure, 2 on a malformed command line.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: symbol (run | compile | sim | serve) [flags] [file ...]")
		return 2
	}
	err := commands[args[0]](ctx, args[1:], stdin, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "symbol %s: %v\n", args[0], err)
	return 1
}

// flags holds the flags more than one subcommand takes. Each is defined
// once, here, so it has one spelling and one meaning everywhere.
type flags struct {
	*flag.FlagSet
	maxSteps int64
	timeout  time.Duration
	bench    string
	units    string
}

func newFlags(name string, stderr io.Writer) *flags {
	f := &flags{FlagSet: flag.NewFlagSet("symbol "+name, flag.ContinueOnError)}
	f.SetOutput(stderr)
	f.StringVar(&f.bench, "bench", "", "use the named corpus program as input (serve: all = the whole corpus)")
	return f
}

// limits defines -max-steps and -timeout.
func (f *flags) limits() {
	f.Int64Var(&f.maxSteps, "max-steps", 0, "step budget of one query or run: sequential ICI steps and VLIW cycles (0 = default)")
	f.DurationVar(&f.timeout, "timeout", 0, "wall-clock limit of one query or run (0 = none; serve: 5s)")
}

// unitCounts defines -units with the subcommand's default.
func (f *flags) unitCounts(def string) {
	f.StringVar(&f.units, "units", def, "comma-separated VLIW unit counts")
}

// parse parses the command line.
func (f *flags) parse(args []string) error {
	if err := f.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}

// runOptions bounds one query or run; the -timeout clock starts now.
func (f *flags) runOptions() symbol.RunOptions {
	o := symbol.RunOptions{MaxSteps: f.maxSteps, MaxCycles: f.maxSteps}
	if f.timeout > 0 {
		o.Deadline = time.Now().Add(f.timeout)
	}
	return o
}

func (f *flags) unitList() ([]int, error) {
	var units []int
	for _, s := range strings.Split(f.units, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || u < 1 {
			return nil, fmt.Errorf("bad unit count %q", s)
		}
		units = append(units, u)
	}
	return units, nil
}

// input is one program to load: a corpus program or a file.
type input struct {
	name string // corpus name or file path
	data []byte // Prolog source or snapshot bytes
}

// inputs reads -bench and the file arguments.
func (f *flags) inputs() ([]input, error) {
	var ins []input
	switch f.bench {
	case "":
	case "all":
		for _, b := range benchprog.All() {
			ins = append(ins, input{b.Name, []byte(b.Source)})
		}
	default:
		b, err := benchprog.Get(f.bench)
		if err != nil {
			return nil, err
		}
		ins = append(ins, input{b.Name, []byte(b.Source)})
	}
	for _, path := range f.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ins = append(ins, input{path, data})
	}
	return ins, nil
}

// one loads the single input a subcommand takes.
func (f *flags) one(ctx context.Context) (*symbol.Program, string, error) {
	ins, err := f.inputs()
	if err != nil {
		return nil, "", err
	}
	if len(ins) != 1 {
		f.Usage()
		return nil, "", errUsage
	}
	prog, err := symbol.Load(ctx, ins[0].data)
	return prog, ins[0].name, err
}

// cmdRun answers queries against the consulted programs: the -q query, or
// one query per line of stdin.
func cmdRun(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	f := newFlags("run", stderr)
	f.limits()
	query := f.String("q", "", "answer this query and exit (default: read queries from stdin)")
	nsol := f.Int("solutions", 1, "answers to print per query, separated by ';' (< 1 = all)")
	stats := f.Bool("stats", false, "print the last answer's execution stats to stderr")
	events := f.Int("events", 0, "print the N most recent executor events of the last answer, or of the fault, to stderr")
	if err := f.parse(args); err != nil {
		return err
	}
	ins, err := f.inputs()
	if err != nil {
		return err
	}
	src, err := consult(ctx, ins)
	if err != nil {
		return err
	}
	ask := func(q string) error {
		prog, err := symbol.Load(ctx, []byte(src), symbol.WithGoal(q))
		if err != nil {
			return err
		}
		if u := prog.Undefined(); len(u) > 0 {
			fmt.Fprintf(stderr, "symbol run: warning: undefined predicates: %v\n", u)
		}
		opts := f.runOptions()
		opts.TraceEvents = *events
		sols, err := symbol.NewEngine(prog).Query(ctx, opts)
		if err != nil {
			return err
		}
		defer sols.Close()
		var last *symbol.Result
		for n := 0; (*nsol < 1 || n < *nsol) && sols.Next(); n++ {
			if n > 0 {
				fmt.Fprintln(stdout, ";")
			}
			last = sols.Result()
			fmt.Fprint(stdout, last.Output)
		}
		if err := sols.Err(); err != nil {
			printEvents(stderr, sols.Result())
			return err
		}
		if last == nil {
			fmt.Fprintln(stdout, "no")
			return nil
		}
		if *stats {
			fmt.Fprint(stderr, last.Stats.String())
		}
		printEvents(stderr, last)
		return nil
	}
	if *query != "" {
		return ask(*query)
	}

	sc := bufio.NewScanner(stdin)
	fmt.Fprintln(stdout, "SYMBOL Prolog — type queries ending in '.', 'halt.' to quit")
	for ctx.Err() == nil {
		fmt.Fprint(stdout, "?- ")
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return sc.Err()
		}
		switch line := strings.TrimSpace(sc.Text()); line {
		case "":
		case "halt.", "halt":
			return nil
		default:
			if err := ask(line); err != nil {
				fmt.Fprintln(stdout, "error:", err)
			}
		}
	}
	return ctx.Err()
}

// printEvents writes the events a traced run kept, oldest first.
func printEvents(w io.Writer, r *symbol.Result) {
	if r.EventsDropped > 0 {
		fmt.Fprintf(w, "events: %d recorded, oldest %d dropped\n",
			int64(len(r.Events))+r.EventsDropped, r.EventsDropped)
	}
	for _, e := range r.Events {
		fmt.Fprintln(w, e.String())
	}
}

// consult joins the sources of the inputs. A program snapshot contributes
// the source embedded in it, since every query compiles together with the
// program's clauses.
func consult(ctx context.Context, ins []input) (string, error) {
	var src strings.Builder
	for _, in := range ins {
		text := string(in.data)
		if symbol.IsSnapshot(in.data) {
			p, err := symbol.Load(ctx, in.data)
			if err != nil {
				return "", fmt.Errorf("%s: %w", in.name, err)
			}
			if p.Goal() != "" {
				return "", fmt.Errorf("%s: a query snapshot has its goal built in; consult a program snapshot or source", in.name)
			}
			if p.Source() == "" {
				return "", fmt.Errorf("%s: program snapshot has no embedded source to consult", in.name)
			}
			text = p.Source()
		}
		src.WriteString(text)
		src.WriteString("\n")
	}
	return src.String(), nil
}

// cmdCompile lists the program's BAM code, Intermediate Code or VLIW
// schedule, and writes snapshots.
func cmdCompile(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) error {
	f := newFlags("compile", stderr)
	f.unitCounts("3")
	bam := f.Bool("bam", false, "print the BAM code produced by the front end")
	icl := f.Bool("ic", false, "print the Intermediate Code (the default listing)")
	vl := f.Bool("vliw", false, "profile, compact and print the VLIW schedule for each -units count")
	bb := f.Bool("bb", false, "basic-block compaction only (with -vliw)")
	out := f.String("o", "", "write a binary snapshot to `file` (conventionally .sym)")
	prof := f.Bool("profile", false, "embed the execution profile in the -o snapshot (runs the program once)")
	if err := f.parse(args); err != nil {
		return err
	}
	units, err := f.unitList()
	if err != nil {
		return err
	}
	prog, _, err := f.one(ctx)
	if err != nil {
		return err
	}
	if u := prog.Undefined(); len(u) > 0 {
		fmt.Fprintf(stderr, "symbol compile: warning: undefined predicates: %v\n", u)
	}
	if *out != "" {
		if *prof {
			if _, err := prog.Profile(); err != nil {
				return fmt.Errorf("profile: %w", err)
			}
		}
		data := prog.Snapshot()
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		info, err := symbol.SnapshotInfo(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d bytes (format v%d)\n", *out, len(data), info.Version)
		for _, s := range info.Sections {
			fmt.Fprintf(stdout, "  %-8s %7d bytes\n", s.Name, s.Bytes)
		}
		if !*bam && !*icl && !*vl {
			return nil
		}
	}
	if !*bam && !*icl && !*vl {
		*icl = true
	}
	if *bam {
		fmt.Fprintln(stdout, "; BAM code")
		fmt.Fprintln(stdout, prog.BAMListing())
	}
	if *icl {
		fmt.Fprintf(stdout, "; Intermediate Code (%d ICIs)\n", prog.CodeSize())
		fmt.Fprintln(stdout, prog.ICListing())
	}
	if !*vl {
		return nil
	}
	for _, u := range units {
		sched, err := prog.ScheduleWith(symbol.DefaultMachine(u),
			symbol.WithScheduleOptions(symbol.ScheduleOptions{BasicBlocksOnly: *bb}))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "; VLIW schedule: %d words, %d ops, avg compaction unit %.2f ops\n",
			sched.Words(), sched.Ops(), sched.AvgTraceLen())
		fmt.Fprintln(stdout, sched.Listing())
	}
	return nil
}

// cmdSim runs the whole pipeline on one program: sequential emulation,
// profile-guided trace compaction, and cycle-level VLIW simulation at each
// -units width, checking every VLIW run against the sequential one.
func cmdSim(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) error {
	f := newFlags("sim", stderr)
	f.limits()
	f.unitCounts("1,2,3,5")
	list := f.Bool("list", false, "list the corpus programs")
	if err := f.parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range benchprog.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	units, err := f.unitList()
	if err != nil {
		return err
	}
	prog, name, err := f.one(ctx)
	if err != nil {
		return err
	}
	res, err := prog.Run(ctx, f.runOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: sequential run: success=%v, %d ICIs executed\n", name, res.Succeeded, res.Steps)
	if res.Output != "" {
		fmt.Fprintf(stdout, "output:\n%s", res.Output)
	}
	seq, err := prog.SeqCycles()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%-14s %12s %10s %10s\n", "machine", "cycles", "speedup", "bubbles")
	fmt.Fprintf(stdout, "%-14s %12d %10s %10s\n", "sequential", seq, "1.00", "-")

	show := func(label string, conf symbol.MachineConfig, sopts ...symbol.ScheduleOption) error {
		sched, err := prog.ScheduleWith(conf, sopts...)
		if err != nil {
			return err
		}
		sim, err := sched.SimulateWith(ctx, f.runOptions())
		if err != nil {
			return err
		}
		if sim.Output != res.Output || sim.Succeeded != res.Succeeded {
			return fmt.Errorf("%s: VLIW run diverged from sequential", label)
		}
		fmt.Fprintf(stdout, "%-14s %12d %10.2f %10d\n", label, sim.Cycles,
			symbol.Speedup(seq, sim.Cycles), sim.Bubble)
		return nil
	}
	if err := show("BAM-like", symbol.BAMMachine(), symbol.WithBasicBlocksOnly()); err != nil {
		return err
	}
	for _, u := range units {
		if err := show(fmt.Sprintf("%d-unit VLIW", u), symbol.DefaultMachine(u)); err != nil {
			return err
		}
	}
	return nil
}

// cmdServe serves the inputs as knowledge bases through internal/serve —
// admission control, load shedding, per-tenant budgets, typed fault
// mapping — until ctx is cancelled, then drains in-flight queries.
//
// Endpoints:
//
//	GET  /healthz           liveness (503 while draining)
//	GET  /readyz            readiness (503 while draining or overloaded)
//	GET  /metrics           Prometheus text (engine + server families)
//	GET  /kbs               loaded knowledge bases, JSON
//	GET  /run/{kb}          run the KB's own main/0
//	GET  /query/{kb}?q=...  answer an arbitrary goal (or POST the goal)
//	GET  /debug/vars        expvar JSON
//
// Adding limit=N to /query streams up to N solutions per page; a response
// with more solutions left carries an opaque cursor, and
// /query/{kb}?cursor=... resumes the suspended stream where it left off.
// Query-kind snapshots in -snapshot-dir pre-warm the compiled-query cache
// instead of becoming KBs.
func cmdServe(ctx context.Context, args []string, _ io.Reader, _, stderr io.Writer) error {
	f := newFlags("serve", stderr)
	f.limits()
	var (
		addr        = f.String("addr", ":8080", "listen address")
		maxInFlight = f.Int("max-inflight", 0, "concurrently executing queries (0 = GOMAXPROCS)")
		maxQueue    = f.Int("max-queue", 0, "admission queue depth (0 = 4x max-inflight)")
		queueWait   = f.Duration("queue-timeout", 0, "max admission wait (0 = 1s)")
		drain       = f.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on shutdown")
		shedP99     = f.Duration("shed-p99", 0, "shed while windowed p99 exceeds this (0 = off)")
		tenantsPath = f.String("tenants", "", "JSON file of named tenant budget envelopes")
		cursorTTL   = f.Duration("cursor-ttl", 0, "idle lifetime of a paginated query's resume cursor (0 = 30s)")
		batchWindow = f.Duration("batch-window", 0, "request-coalescing window (0 = 2ms)")
		maxBatch    = f.Int("max-batch", 0, "max requests per coalesced batch (0 = max-inflight; 1 = no coalescing)")
		snapDir     = f.String("snapshot-dir", "", "directory of .sym snapshots preloaded at boot (program snapshots become KBs, query snapshots pre-warm the query cache)")
	)
	if err := f.parse(args); err != nil {
		return err
	}
	logger := log.New(stderr, "", log.LstdFlags)
	cfg := serve.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueWait,
		RequestTimeout: f.timeout,
		ShedP99:        *shedP99,
		CursorTTL:      *cursorTTL,
		BatchWindow:    *batchWindow,
		MaxBatch:       *maxBatch,
		SnapshotDir:    *snapDir,
		DefaultTenant:  serve.Tenant{MaxSteps: f.maxSteps},
		Logf:           logger.Printf,
	}
	if *tenantsPath != "" {
		data, err := os.ReadFile(*tenantsPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &cfg.Tenants); err != nil {
			return fmt.Errorf("tenants %s: %w", *tenantsPath, err)
		}
	}
	ins, err := f.inputs()
	if err != nil {
		return err
	}
	var kbs []serve.KB
	for _, in := range ins {
		kb := serve.KB{Name: strings.TrimSuffix(filepath.Base(in.name), filepath.Ext(in.name))}
		if symbol.IsSnapshot(in.data) {
			kb.Snapshot = in.data
		} else {
			kb.Source = string(in.data)
		}
		kbs = append(kbs, kb)
	}
	if len(kbs) == 0 && *snapDir == "" {
		return errors.New("no knowledge bases: pass -bench, Prolog/.sym files, and/or -snapshot-dir")
	}

	s, err := serve.New(cfg, kbs...)
	if err != nil {
		return err
	}
	s.PublishExpvar("symbolserve")
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("symbol serve: %d knowledge bases loaded, listening on %s", len(s.KBNames()), ln.Addr())
	httpSrv := &http.Server{Handler: s, ErrorLog: logger}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Printf("symbol serve: draining")
	}

	// Shed new work first, then close the listener, then wind down
	// in-flight queries: hard-cancelled stragglers still get responses
	// before the HTTP server finishes its own shutdown.
	s.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("symbol serve: http shutdown: %v", err)
	}
	if drainErr != nil {
		return drainErr
	}
	logger.Printf("symbol serve: drained cleanly")
	return nil
}
