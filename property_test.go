package symbol

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// End-to-end property tests: random inputs are run through the whole
// pipeline (compile → emulate, plus VLIW equivalence on a subset) and
// checked against Go reference implementations.

func listLiteral(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func TestPropertyQsortMatchesGoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const prelude = `
qsort([], R, R).
qsort([X|L], R, R0) :-
    partition(L, X, L1, L2),
    qsort(L2, R1, R0),
    qsort(L1, R, [X|R1]).
partition([], _, [], []).
partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
`
	for i := 0; i < 12; i++ {
		n := rng.Intn(30)
		xs := make([]int, n)
		for j := range xs {
			xs[j] = rng.Intn(200) - 100
		}
		src := prelude + fmt.Sprintf("main :- qsort(%s, S, []), write(S), nl.\n", listLiteral(xs))
		prog := mustLoad(t, src)
		res, err := prog.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		if got := strings.TrimSpace(res.Output); got != listLiteral(want) {
			t.Fatalf("case %d: sorted %v to %q", i, xs, got)
		}
		// Spot-check VLIW equivalence on a few cases.
		if i%4 == 0 {
			sched, err := prog.ScheduleWith(DefaultMachine(3))
			if err != nil {
				t.Fatal(err)
			}
			sim, err := sched.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			if sim.Output != res.Output {
				t.Fatalf("case %d: VLIW diverged", i)
			}
		}
	}
}

// randTerm builds a random ground Prolog term as source text.
func randTerm(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprint(rng.Intn(20) - 10)
		case 1:
			return []string{"a", "b", "c", "foo"}[rng.Intn(4)]
		default:
			return "[]"
		}
	}
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("f(%s,%s)", randTerm(rng, depth-1), randTerm(rng, depth-1))
	case 1:
		return fmt.Sprintf("g(%s)", randTerm(rng, depth-1))
	default:
		return fmt.Sprintf("[%s|%s]", randTerm(rng, depth-1), randTerm(rng, depth-1))
	}
}

func TestPropertyGroundUnification(t *testing.T) {
	// For ground terms, =/2 succeeds exactly when the source texts denote
	// the same term; unification is symmetric; == agrees with =.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		t1 := randTerm(rng, 3)
		var t2 string
		if rng.Intn(2) == 0 {
			t2 = t1
		} else {
			t2 = randTerm(rng, 3)
		}
		same := t1 == t2
		src := fmt.Sprintf(`
main :- ( %s = %s  -> write(u1) ; write(n1) ),
        ( %s = %s  -> write(u2) ; write(n2) ),
        ( %s == %s -> write(e1) ; write(d1) ), nl.
`, t1, t2, t2, t1, t1, t2)
		prog := mustLoad(t, src)
		res, err := prog.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := "n1n2d1\n"
		if same {
			want = "u1u2e1\n"
		}
		if res.Output != want {
			t.Fatalf("case %d: %s vs %s → %q, want %q", i, t1, t2, res.Output, want)
		}
	}
}

func TestPropertyUnivFunctorAgree(t *testing.T) {
	// For random ground compounds: T =.. L, rebuild from L, compare with
	// ==; functor/arg must agree with the decomposition.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		tm := fmt.Sprintf("h(%s,%s,%s)", randTerm(rng, 2), randTerm(rng, 2), randTerm(rng, 2))
		src := fmt.Sprintf(`
main :- T = %s,
        T =.. L, U =.. L,
        ( T == U -> write(rt_ok) ; write(rt_bad) ),
        functor(T, F, N),
        ( L = [F|_] -> write(f_ok) ; write(f_bad) ),
        arg(1, T, A1), T =.. [_, A1x|_],
        ( A1 == A1x -> write(a_ok) ; write(a_bad) ),
        N =:= 3, nl.
`, tm)
		prog := mustLoad(t, src)
		res, err := prog.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, tm, err)
		}
		if res.Output != "rt_okf_oka_ok\n" {
			t.Fatalf("case %d (%s): %q", i, tm, res.Output)
		}
	}
}

func TestPropertyWriteReadStable(t *testing.T) {
	// write/1 output of a ground term, substituted back into a program,
	// must be == to the original (printer/reader agreement end to end).
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20; i++ {
		tm := randTerm(rng, 3)
		p1 := mustLoad(t, fmt.Sprintf("main :- write(%s), nl.", tm))
		r1, err := p1.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		printed := strings.TrimSpace(r1.Output)
		p2 := mustLoad(t, fmt.Sprintf("main :- ( %s == %s -> write(ok) ; write(bad) ), nl.", tm, printed))
		r2, err := p2.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Output != "ok\n" {
			t.Fatalf("case %d: %q reprinted as %q", i, tm, printed)
		}
	}
}
