package symbol

import (
	"context"
	"strings"
	"testing"
)

// TestCompileQueryTerminators is the regression table for the trailing-"."
// normalization bug: loading WithGoal used to bolt a "." onto any goal whose
// last byte wasn't one, which double-terminated goals ending in a quoted
// atom and mis-terminated goals ending in a % comment. Termination now goes
// through the parser: parse as written, retry with a terminator on its own
// line, and only then reject.
func TestCompileQueryTerminators(t *testing.T) {
	kb := `
p(1). p(2).
q('a.b').
`
	cases := []struct {
		name string
		goal string
		want string // substring of the first solution's output; "" = expect compile error
	}{
		{"bare", "p(X)", "X = 1"},
		{"terminated", "p(X).", "X = 1"},
		{"prefixed", "?- p(X).", "X = 1"},
		{"prefixed-bare", "?-p(X)", "X = 1"},
		{"spaced", "  p(X) . ", "X = 1"},
		{"quoted-dot-atom", "q(X)", "X = a.b"},
		{"quoted-dot-atom-terminated", "q(X).", "X = a.b"},
		{"ends-in-quoted-dot", "X = 'a.b'", "X = a.b"},
		{"trailing-comment", "p(X) % pick one", "X = 1"},
		{"terminated-then-comment", "p(X). % done", "X = 1"},
		{"no-variables", "p(1)", "yes"},
		{"empty", "", ""},
		{"only-prefix", "?-", ""},
		{"two-clauses", "p(X). p(Y).", ""},
		{"malformed", "p(", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Load(context.Background(), []byte(kb), WithGoal(c.goal))
			if c.want == "" {
				if err == nil {
					t.Fatalf("goal %q compiled, want error", c.goal)
				}
				return
			}
			if err != nil {
				t.Fatalf("goal %q: %v", c.goal, err)
			}
			res, err := prog.Run(context.Background(), RunOptions{})
			if err != nil {
				t.Fatalf("goal %q run: %v", c.goal, err)
			}
			if !res.Succeeded || !strings.Contains(res.Output, c.want) {
				t.Fatalf("goal %q: ok=%v output %q, want substring %q",
					c.goal, res.Succeeded, res.Output, c.want)
			}
		})
	}
}

// TestCompileQueryDropsMain: the knowledge base's own main/0 must not
// shadow the posed goal.
func TestCompileQueryDropsMain(t *testing.T) {
	kb := `
main :- write(wrong), nl.
p(ok).
`
	prog := mustLoad(t, kb, WithGoal("p(X)"))
	res, err := prog.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Output, "wrong") || !strings.Contains(res.Output, "X = ok") {
		t.Fatalf("kb main leaked into query: %q", res.Output)
	}
}

// TestQueryCallsProgramMain: a goal naming main/0 runs the knowledge base's
// own main/0 once. The synthetic query entry used to be main/0 itself, so
// the goal called the entry and recursed until the step limit.
func TestQueryCallsProgramMain(t *testing.T) {
	kb := `
main :- write(hello), nl.
p :- main.
`
	for _, goal := range []string{"main", "p"} {
		prog := mustLoad(t, kb, WithGoal(goal))
		res, err := prog.Run(context.Background(), RunOptions{MaxSteps: 1e6})
		if err != nil {
			t.Fatalf("goal %q: %v", goal, err)
		}
		if !res.Succeeded || res.Output != "hello\nyes\n" {
			t.Errorf("goal %q: ok=%v output %q, want \"hello\\nyes\\n\"", goal, res.Succeeded, res.Output)
		}
	}
}
