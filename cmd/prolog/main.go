// Command prolog is an interactive top level for the SYMBOL system: it
// consults a program file and answers queries by compiling each query
// together with the program and running it on the IntCode emulator.
//
// Usage:
//
//	prolog program.pl            # interactive: type queries, 'halt.' quits
//	prolog -q 'app(X,Y,[1,2]).' program.pl
//	prolog -all -q 'app(X,Y,[1,2]).' program.pl
//	prolog -q 'main.' program.sym  # a program snapshot (symbolc -o)
//
// Queries may be written with or without the '?-' prefix. The first
// solution is printed by default; -all prints every solution via a
// failure-driven loop inside the program; -solutions N streams up to N
// solutions (N < 0 for all) by suspending the machine at each one and
// resuming it on demand — no failure-driven loop, so the machine stops
// as soon as enough solutions are printed.
//
// -dispatch selects the execution core (legacy interpreter, plain
// predecoded stream, or fused superinstruction stream); all three produce
// identical answers, steps, and faults.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"symbol"
	"symbol/internal/compile"
	"symbol/internal/emu"
	"symbol/internal/expand"
	"symbol/internal/ic"
	"symbol/internal/obs"
	"symbol/internal/parse"
	"symbol/internal/rename"
	"symbol/internal/term"
)

var (
	maxSteps = flag.Int64("maxsteps", 0, "abort a query after this many ICI steps (0 = default limit)")
	timeout  = flag.Duration("timeout", 0, "abort a query after this wall-clock duration (0 = none)")
	dispatch = flag.String("dispatch", "", "execution core: legacy, nofuse or fused (default fused)")
	stats    = flag.Bool("stats", false, "print per-query execution stats (op-class mix, memory high-water marks)")
	events   = flag.Int("events", 0, "trace the query's last N executor milestone events to stderr")
	nsol     = flag.Int("solutions", 0, "stream up to N solutions via suspend/resume (negative = all, 0 = off)")

	// Resolved from -dispatch once at startup.
	runLegacy, runNoFuse bool
)

// resolveDispatch maps the -dispatch enum to the emulator's mode booleans.
func resolveDispatch() error {
	d, err := symbol.ParseDispatch(*dispatch)
	runLegacy, runNoFuse = d == symbol.DispatchLegacy, d == symbol.DispatchNoFuse
	return err
}

func main() {
	query := flag.String("q", "", "run one query and exit")
	all := flag.Bool("all", false, "print all solutions instead of the first")
	flag.Parse()
	if err := resolveDispatch(); err != nil {
		fmt.Fprintln(os.Stderr, "prolog:", err)
		os.Exit(1)
	}

	program, err := consult(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "prolog:", err)
		os.Exit(1)
	}

	if *query != "" {
		if err := ask(program, *query, *all); err != nil {
			fmt.Fprintln(os.Stderr, "prolog:", err)
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("SYMBOL Prolog — type queries ending in '.', 'halt.' to quit")
	for {
		fmt.Print("?- ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "halt." || line == "halt" {
			return
		}
		if err := ask(program, line, *all); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// consult reads the program files. Each is Prolog source or a program
// snapshot (symbolc -o, Program.Snapshot); a snapshot contributes the
// source embedded in it, since every query is compiled together with the
// program's clauses.
func consult(paths []string) ([]term.Term, error) {
	var program []term.Term
	for _, f := range paths {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		src := string(data)
		if symbol.IsSnapshot(data) {
			p, err := symbol.Load(context.Background(), data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if p.Goal() != "" {
				return nil, fmt.Errorf("%s: a query snapshot has its goal built in; consult a program snapshot or source", f)
			}
			if p.Source() == "" {
				return nil, fmt.Errorf("%s: program snapshot has no embedded source to consult", f)
			}
			src = p.Source()
		}
		clauses, err := parse.All(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		program = append(program, clauses...)
	}
	return program, nil
}

// ask compiles program + query into a synthetic main/0 that prints the
// query variables' bindings, and runs it.
func ask(program []term.Term, query string, all bool) error {
	query = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(query), "?-"))
	if !strings.HasSuffix(query, ".") {
		query += "."
	}
	goals, err := parse.All(query)
	if err != nil {
		return err
	}
	if len(goals) != 1 {
		return fmt.Errorf("expected exactly one query")
	}
	goal := goals[0]

	// Named query variables, in first-occurrence order.
	var named []*term.Var
	for _, v := range term.Vars(goal, nil) {
		if v.Name != "" && v.Name != "_" && !strings.HasPrefix(v.Name, "_") {
			named = append(named, v)
		}
	}

	// Streaming overrides the failure-driven loop: the emulator suspends
	// at each solution instead, so the program needs no loop of its own.
	stream := *nsol != 0
	if stream {
		all = false
	}

	// Body: goal, then for each variable  write('X = '), write(X), nl.
	body := goal
	if len(named) == 0 {
		body = term.Comma(body, writeLine(term.Atom("yes")))
	} else {
		for _, v := range named {
			body = term.Comma(body, bindingWriter(v))
		}
	}
	if all {
		// Failure-driven loop over all solutions; separate them.
		body = term.Comma(body,
			term.Comma(&term.Compound{Functor: "write", Args: []term.Term{term.Atom(";")}},
				term.Comma(term.Atom("nl"), term.Atom("fail"))))
	}

	head := term.Atom("main")
	clauses := append([]term.Term{}, program...)
	clauses = append(clauses, &term.Compound{Functor: ":-", Args: []term.Term{head, body}})
	if all {
		clauses = append(clauses, head) // main. — succeed after the loop
	}

	c := compile.New(compile.DefaultOptions())
	if err := c.AddProgram(clauses); err != nil {
		return err
	}
	unit, err := c.Compile()
	if err != nil {
		return err
	}
	if u := c.Undefined(); len(u) > 0 {
		fmt.Fprintf(os.Stderr, "warning: undefined predicates: %v\n", u)
	}
	prog, err := expand.Translate(unit, c.Atoms())
	if err != nil {
		return err
	}
	prog = rename.Fold(prog)
	var deadline time.Time
	if *timeout > 0 {
		deadline = time.Now().Add(*timeout)
	}
	var trace *obs.Trace
	if *events > 0 {
		trace = obs.NewTrace(*events)
	}
	opts := emu.Options{
		MaxSteps: *maxSteps,
		Deadline: deadline,
		Legacy:   runLegacy,
		NoFuse:   runNoFuse,
		Events:   trace,
	}
	if stream {
		return askStream(prog, opts, trace, *nsol)
	}
	res, err := emu.Run(prog, opts)
	if trace != nil {
		// The trace survives faulting runs, so dump it before bailing.
		printEvents(trace, prog)
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprint(os.Stderr, res.Stats.String())
	}
	out := res.Output
	if all {
		out = strings.TrimSuffix(out, ";\n")
	}
	if res.Status != 0 || strings.TrimSpace(out) == "" && len(named) > 0 {
		fmt.Println("no")
		return nil
	}
	fmt.Print(out)
	return nil
}

// askStream runs the query on a suspendable machine, printing each
// solution as the machine reaches it and resuming — backtracking into the
// program — until limit solutions have been printed (limit < 0 for all)
// or the solution space is exhausted. The step budget and deadline span
// the whole stream, and the final stats are cumulative across segments.
func askStream(prog *ic.Program, opts emu.Options, trace *obs.Trace, limit int) error {
	m := emu.New(prog, opts)
	n := 0
	res, err := m.Run()
	for {
		if trace != nil {
			printEvents(trace, prog)
		}
		if err != nil {
			return err
		}
		if res.Status != 0 {
			break
		}
		if n > 0 {
			fmt.Println(";")
		}
		n++
		fmt.Print(res.Output)
		if limit > 0 && n >= limit {
			break
		}
		if !m.More() {
			break
		}
		res, err = m.Resume()
	}
	if *stats {
		st := m.Stats()
		fmt.Fprint(os.Stderr, st.String())
	}
	if n == 0 {
		fmt.Println("no")
	}
	return nil
}

// printEvents dumps the traced milestones to stderr, labeling pcs with the
// program's listing labels where they land on one.
func printEvents(trace *obs.Trace, prog *ic.Program) {
	if d := trace.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "events: %d recorded, oldest %d dropped\n", trace.Total(), d)
	}
	for _, e := range trace.Events() {
		fmt.Fprint(os.Stderr, e.String())
		if name, ok := prog.Names[int(e.PC)]; ok {
			fmt.Fprintf(os.Stderr, "  ; %s", name)
		}
		switch e.Kind {
		case obs.EvCall, obs.EvExec:
			if name, ok := prog.Names[int(e.Arg)]; ok {
				fmt.Fprintf(os.Stderr, "  -> %s", name)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
}

// bindingWriter builds  write('X = '), write(X), nl.
func bindingWriter(v *term.Var) term.Term {
	return term.Comma(
		&term.Compound{Functor: "write", Args: []term.Term{term.Atom(v.Name + " = ")}},
		term.Comma(
			&term.Compound{Functor: "write", Args: []term.Term{v}},
			term.Atom("nl")))
}

// writeLine builds  write(what), nl.
func writeLine(what term.Term) term.Term {
	return term.Comma(
		&term.Compound{Functor: "write", Args: []term.Term{what}},
		term.Atom("nl"))
}
