package symbol

import "testing"

// The embedded library links in predicates the program calls but does not
// define; user definitions always shadow it.

func TestLibraryBasics(t *testing.T) {
	out := run(t, `
main :- append([1,2], [3], L), write(L), nl,
        member(2, L),
        reverse(L, R), write(R), nl,
        length(L, N), write(N), nl,
        last(L, E), write(E), nl,
        nth0(1, L, X1), write(X1), nl,
        nth1(1, L, X2), write(X2), nl.
`)
	if out != "[1,2,3]\n[3,2,1]\n3\n3\n2\n1\n" {
		t.Fatalf("got %q", out)
	}
}

func TestLibraryArithmeticLists(t *testing.T) {
	out := run(t, `
main :- sum_list([1,2,3,4], S), write(S), nl,
        max_list([3,9,2], Mx), write(Mx), nl,
        min_list([3,9,2], Mn), write(Mn), nl,
        numlist(1, 5, L), write(L), nl,
        msort([4,1,3,1,2], Sorted), write(Sorted), nl.
`)
	if out != "10\n9\n2\n[1,2,3,4,5]\n[1,1,2,3,4]\n" {
		t.Fatalf("got %q", out)
	}
}

func TestLibraryBetweenBacktracks(t *testing.T) {
	out := run(t, `
main :- between(1, 4, X), write(X), fail.
main :- nl.
`)
	if out != "1234\n" {
		t.Fatalf("got %q", out)
	}
}

func TestLibraryMaplistAndForall(t *testing.T) {
	out := run(t, `
double(X, Y) :- Y is 2*X.
pos(X) :- X > 0.
main :- maplist(double, [1,2,3], Ys), write(Ys), nl,
        maplist(pos, [1,2]),
        forall(member(X, [2,4,6]), 0 =:= X mod 2),
        write(ok), nl.
`)
	if out != "[2,4,6]\nok\n" {
		t.Fatalf("got %q", out)
	}
	expectFail(t, `
pos(X) :- X > 0.
main :- maplist(pos, [1,-2]).
`)
}

func TestUserDefinitionShadowsLibrary(t *testing.T) {
	out := run(t, `
append(user_version).
main :- append(X), write(X), nl.
`)
	// append/1 is the user's own predicate; append/3 stays library.
	if out != "user_version\n" {
		t.Fatalf("got %q", out)
	}
	out = run(t, `
member(X, _) :- X = shadowed.
main :- member(M, [1,2]), write(M), nl.
`)
	if out != "shadowed\n" {
		t.Fatalf("user member/2 must shadow the library: %q", out)
	}
}

func TestLibraryPredicatesNotUndefined(t *testing.T) {
	prog := mustLoad(t, `main :- between(1, 3, X), X > 1, write(X), nl.`)
	if u := prog.Undefined(); len(u) != 0 {
		t.Fatalf("library predicates reported undefined: %v", u)
	}
}
