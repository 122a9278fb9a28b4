package symbol

import (
	"context"
	"testing"

	"symbol/internal/benchprog"
)

// The central correctness property of the whole back end (DESIGN.md §4):
// the trace-scheduled VLIW program must be executable and produce the same
// observable results as the sequential IntCode emulation, on every machine
// configuration, for every benchmark.

func checkEquivalence(t *testing.T, name, src string, opts ScheduleOptions, units []int) {
	t.Helper()
	prog := mustLoad(t, src)
	seq, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	for _, u := range units {
		conf := DefaultMachine(u)
		sched, err := prog.ScheduleWith(conf, WithScheduleOptions(opts))
		if err != nil {
			t.Fatalf("%s/%d-unit: schedule: %v", name, u, err)
		}
		res, err := sched.Simulate()
		if err != nil {
			t.Fatalf("%s/%d-unit: simulate: %v", name, u, err)
		}
		if res.Succeeded != seq.Succeeded || res.Output != seq.Output {
			t.Fatalf("%s/%d-unit: VLIW result diverged:\nseq: ok=%v %q\nvliw: ok=%v %q",
				name, u, seq.Succeeded, seq.Output, res.Succeeded, res.Output)
		}
	}
}

var microPrograms = map[string]string{
	"append": `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2,3], [4], X), write(X), nl.
`,
	"backtrack": `
p(1). p(2). p(3).
main :- p(X), X > 2, write(X), nl.
`,
	"cutfail": `
max(X, Y, X) :- X >= Y, !.
max(_, Y, Y).
main :- max(3, 7, M), max(M, 2, N), write(N), nl.
`,
	"negation": `
p(a).
main :- \+ p(b), write(ok), nl.
`,
	"arith": `
f(0, 1) :- !.
f(N, R) :- M is N-1, f(M, S), R is S*N.
main :- f(10, R), write(R), nl.
`,
	"structs": `
main :- X = f(g(1), [a,b|T]), X = f(G, L), T = [c],
        write(G), write(L), nl.
`,
	"fails": `
p(1).
main :- p(2), write(never), nl.
`,
	"deepwrite": `
main :- mk(6, T), write(T), nl.
mk(0, leaf) :- !.
mk(N, node(L, N, R)) :- M is N-1, mk(M, L), mk(M, R).
`,
}

func TestVLIWEquivalenceMicro(t *testing.T) {
	for name, src := range microPrograms {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			checkEquivalence(t, name, src, ScheduleOptions{}, []int{1, 2, 3, 5})
		})
	}
}

func TestVLIWEquivalenceBasicBlocksOnly(t *testing.T) {
	for name, src := range microPrograms {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			checkEquivalence(t, name, src, ScheduleOptions{BasicBlocksOnly: true}, []int{1, 3})
		})
	}
}

func TestVLIWEquivalenceBenchmarks(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Heavy && testing.Short() {
				t.Skip("heavy benchmark skipped in short mode")
			}
			checkEquivalence(t, b.Name, b.Source, ScheduleOptions{}, []int{1, 3})
		})
	}
}

// Speedups must be sane: parallel cycles never exceed sequential cycles by
// more than the bubble overhead, and more units never hurt much.
func TestSpeedupSanity(t *testing.T) {
	prog := mustLoad(t, benchMust(t, "qsort"))
	seq, err := prog.SeqCycles()
	if err != nil {
		t.Fatal(err)
	}
	var prev int64
	for _, u := range []int{1, 2, 3, 4, 5} {
		sched, err := prog.ScheduleWith(DefaultMachine(u))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		su := Speedup(seq, res.Cycles)
		t.Logf("%d units: %d cycles, speedup %.2f", u, res.Cycles, su)
		if su < 1.0 {
			t.Errorf("%d units slower than sequential (%.2f)", u, su)
		}
		if prev != 0 && res.Cycles > prev+prev/10 {
			t.Errorf("%d units much slower than %d units (%d vs %d cycles)", u, u-1, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// mustLoad loads src with Load, failing the test on error.
func mustLoad(tb testing.TB, src string, opts ...LoadOption) *Program {
	tb.Helper()
	p, err := Load(context.Background(), []byte(src), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func benchMust(t *testing.T, name string) string {
	t.Helper()
	b, err := benchprog.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Source
}
