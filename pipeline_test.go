package symbol

import (
	"context"
	"strings"
	"testing"
)

// run compiles and executes src, expecting success, and returns the output.
func run(t *testing.T, src string) string {
	t.Helper()
	prog := mustLoad(t, src)
	res, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("run: %v\nBAM:\n%s", err, prog.BAMListing())
	}
	if !res.Succeeded {
		t.Fatalf("program failed (no solution); output so far: %q", res.Output)
	}
	return res.Output
}

// expectFail compiles and executes src, expecting main/0 to fail.
func expectFail(t *testing.T, src string) {
	t.Helper()
	prog := mustLoad(t, src)
	res, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Succeeded {
		t.Fatalf("program unexpectedly succeeded, output %q", res.Output)
	}
}

func TestFacts(t *testing.T) {
	out := run(t, `
p(a).
main :- p(a), write(yes), nl.
`)
	if out != "yes\n" {
		t.Fatalf("output %q", out)
	}
}

func TestFactFailure(t *testing.T) {
	expectFail(t, `
p(a).
main :- p(b).
`)
}

func TestUnifyBindsVariable(t *testing.T) {
	out := run(t, `
p(hello).
main :- p(X), write(X), nl.
`)
	if out != "hello\n" {
		t.Fatalf("output %q", out)
	}
}

func TestBacktrackingThroughFacts(t *testing.T) {
	out := run(t, `
p(a). p(b). p(c).
main :- p(X), X = b, write(X), nl.
`)
	if out != "b\n" {
		t.Fatalf("output %q", out)
	}
}

func TestArithmetic(t *testing.T) {
	out := run(t, `
main :- X is 3*4+2, write(X), nl,
        Y is X // 2, write(Y), nl,
        Z is X mod 5, write(Z), nl,
        W is -X, write(W), nl.
`)
	if out != "14\n7\n4\n-14\n" {
		t.Fatalf("output %q", out)
	}
}

func TestComparison(t *testing.T) {
	run(t, `main :- 1 < 2, 2 =< 2, 3 > 1, 3 >= 3, 4 =:= 4, 4 =\= 5.`)
	expectFail(t, `main :- 2 < 1.`)
	expectFail(t, `main :- 1 =:= 2.`)
}

func TestListUnification(t *testing.T) {
	out := run(t, `
main :- X = [1,2,3], X = [H|T], write(H), nl, write(T), nl.
`)
	if out != "1\n[2,3]\n" {
		t.Fatalf("output %q", out)
	}
}

func TestAppend(t *testing.T) {
	out := run(t, `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2], [3,4], X), write(X), nl.
`)
	if out != "[1,2,3,4]\n" {
		t.Fatalf("output %q", out)
	}
}

func TestAppendBackward(t *testing.T) {
	// Run append in the splitting direction: requires real backtracking.
	out := run(t, `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app(X, Y, [1,2,3]), X = [1], write(Y), nl.
`)
	if out != "[2,3]\n" {
		t.Fatalf("output %q", out)
	}
}

func TestNrev(t *testing.T) {
	out := run(t, `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
main :- nrev([1,2,3,4,5], R), write(R), nl.
`)
	if out != "[5,4,3,2,1]\n" {
		t.Fatalf("output %q", out)
	}
}

func TestCut(t *testing.T) {
	out := run(t, `
max(X, Y, X) :- X >= Y, !.
max(_, Y, Y).
main :- max(3, 7, M), write(M), nl, max(9, 2, N), write(N), nl.
`)
	if out != "7\n9\n" {
		t.Fatalf("output %q", out)
	}
}

func TestDeepCutAfterCall(t *testing.T) {
	out := run(t, `
p(1). p(2). p(3).
q(X) :- p(X), X > 1, !, write(X), nl.
main :- q(_).
`)
	if out != "2\n" {
		t.Fatalf("output %q", out)
	}
}

func TestCutBarrierRestoresOuterAlternatives(t *testing.T) {
	out := run(t, `
p(1). p(2).
q(X) :- p(X), !.
main :- q(X), X = 2, write(second), nl.
main :- write(first_main_failed), nl.
`)
	// q commits to X=1; X=2 fails; outer main alternatives remain.
	if out != "first_main_failed\n" {
		t.Fatalf("output %q", out)
	}
}

func TestIfThenElse(t *testing.T) {
	out := run(t, `
classify(X, small) :- (X < 10 -> true ; fail).
classify(X, big) :- X >= 10.
test(X) :- (X < 10 -> write(small) ; write(big)), nl.
main :- test(5), test(15).
`)
	if out != "small\nbig\n" {
		t.Fatalf("output %q", out)
	}
}

func TestDisjunction(t *testing.T) {
	out := run(t, `
main :- (fail ; write(right)), nl.
`)
	if out != "right\n" {
		t.Fatalf("output %q", out)
	}
}

func TestNegationAsFailure(t *testing.T) {
	run(t, `
p(a).
main :- \+ p(b).
`)
	expectFail(t, `
p(a).
main :- \+ p(a).
`)
}

func TestNegationUndoesBindings(t *testing.T) {
	out := run(t, `
p(a).
main :- \+ (p(X), X = b), write(ok), nl.
`)
	if out != "ok\n" {
		t.Fatalf("output %q", out)
	}
}

func TestStructures(t *testing.T) {
	out := run(t, `
area(rect(W, H), A) :- A is W*H.
area(square(S), A) :- A is S*S.
main :- area(rect(3, 4), A1), write(A1), nl,
        area(square(5), A2), write(A2), nl.
`)
	if out != "12\n25\n" {
		t.Fatalf("output %q", out)
	}
}

func TestNestedStructUnify(t *testing.T) {
	out := run(t, `
main :- X = f(g(1), h(Y, [a|Z])), X = f(G, h(2, [a,b])),
        write(G), nl, write(Y), nl, write(Z), nl.
`)
	if out != "g(1)\n2\n[b]\n" {
		t.Fatalf("output %q", out)
	}
}

func TestFirstArgIndexingDeterminism(t *testing.T) {
	// With distinct atom selectors, calls must not leave choice points:
	// observable through cut-free determinism (second clause never runs).
	out := run(t, `
color(red, 1). color(green, 2). color(blue, 3).
main :- color(green, X), write(X), nl.
`)
	if out != "2\n" {
		t.Fatalf("output %q", out)
	}
}

func TestStructEqAndTypeTests(t *testing.T) {
	run(t, `
main :- X = f(1), Y = f(1), X == Y,
        Z = f(2), \+ X == Z, X \== Z,
        atom(foo), integer(42), \+ atom(42),
        var(_), nonvar(foo), atomic(foo), atomic(7), \+ atomic(f(x)).
`)
}

func TestRecursionDepth(t *testing.T) {
	out := run(t, `
count(0) :- !.
count(N) :- M is N-1, count(M).
main :- count(10000), write(done), nl.
`)
	if out != "done\n" {
		t.Fatalf("output %q", out)
	}
}

func TestPermanentVariablesAcrossCalls(t *testing.T) {
	out := run(t, `
id(X, X).
main :- id(A, 1), id(B, 2), id(C, 3), Z is A+B+C, write(Z), nl.
`)
	if out != "6\n" {
		t.Fatalf("output %q", out)
	}
}

func TestLastCallOptimizationDeepRecursion(t *testing.T) {
	// 200000 tail-recursive calls must not exhaust the environment stack.
	out := run(t, `
loop(0).
loop(N) :- M is N-1, loop(M).
main :- loop(200000), write(ok), nl.
`)
	if out != "ok\n" {
		t.Fatalf("output %q", out)
	}
}

func TestWriteNestedTerms(t *testing.T) {
	out := run(t, `
main :- write(f(g(h(1,2)), [a,[b],c|d])), nl, write([]), nl.
`)
	if out != "f(g(h(1,2)),[a,[b],c|d])\n[]\n" {
		t.Fatalf("output %q", out)
	}
}

func TestUndefinedPredicateFails(t *testing.T) {
	prog := mustLoad(t, `main :- nosuchpred(1).`)
	if len(prog.Undefined()) != 1 {
		t.Fatalf("expected one undefined predicate, got %v", prog.Undefined())
	}
	res, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatal("call to undefined predicate must fail")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`p(a).`,                 // no main/0
		`main :- X is foo + 1.`, // bad arithmetic
	}
	for _, src := range bad {
		if _, err := Load(context.Background(), []byte(src)); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

func TestListingsNonEmpty(t *testing.T) {
	prog := mustLoad(t, `main :- write(hi), nl.`)
	if !strings.Contains(prog.BAMListing(), "procedure main/0") {
		t.Error("BAM listing missing procedure header")
	}
	if !strings.Contains(prog.ICListing(), "jsr") {
		t.Error("IC listing missing call instruction")
	}
	if prog.CodeSize() == 0 {
		t.Error("empty IC program")
	}
}
