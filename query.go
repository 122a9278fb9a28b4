package symbol

import (
	"fmt"
	"strings"

	"symbol/internal/compile"
	"symbol/internal/parse"
	"symbol/internal/term"
)

// queryClauses is the compile-side half of query handling: it parses the
// knowledge base and appends a synthetic entry clause, named
// compile.QueryEntry, whose body runs the goal and, on success, writes one
// "Var = value" line per named goal variable (or "yes" when the goal has
// none). A program that defines the synthetic entry starts there, so the
// knowledge base's own main/0 stays an ordinary predicate the goal may
// call. It returns the clauses ready for compileClauses together with the
// normalized goal text (the "?-" prefix stripped), which the Program
// records for snapshots.
//
// The goal may be written with or without the "?-" prefix and the final
// ".".
func queryClauses(kbSrc, goal string) ([]term.Term, string, error) {
	parsed, err := parse.All(kbSrc)
	if err != nil {
		return nil, "", fmt.Errorf("symbol: knowledge base: %w", err)
	}
	goal = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(goal), "?-"))
	if goal == "" {
		return nil, "", fmt.Errorf("symbol: empty query")
	}
	// Normalize the terminating "." through the parser, not by looking at
	// the final byte: a goal can end in a quoted atom ('it ends here.') or a
	// trailing % comment whose "." is not a terminator, and a terminated
	// goal can be followed by a comment. Parse as written first; if that
	// fails, retry with a terminator appended on its own line (the newline
	// closes any open % comment). Only if both fail is the goal malformed,
	// and the as-written error is the one that describes what the user
	// typed.
	goals, perr := parse.All(goal)
	if perr != nil {
		if g2, err2 := parse.All(goal + "\n."); err2 == nil {
			goals, perr = g2, nil
		}
	}
	if perr != nil {
		return nil, "", fmt.Errorf("symbol: query: %w", perr)
	}
	if len(goals) != 1 {
		return nil, "", fmt.Errorf("symbol: expected exactly one query, got %d", len(goals))
	}

	// Named query variables, in first-occurrence order.
	var named []*term.Var
	for _, v := range term.Vars(goals[0], nil) {
		if v.Name != "" && !strings.HasPrefix(v.Name, "_") {
			named = append(named, v)
		}
	}

	// '$query' :- Goal, write('X = '), write(X), nl, ...  (or write(yes), nl).
	body := goals[0]
	if len(named) == 0 {
		body = term.Comma(body, term.Comma(
			&term.Compound{Functor: "write", Args: []term.Term{term.Atom("yes")}},
			term.Atom("nl")))
	} else {
		for _, v := range named {
			body = term.Comma(body, term.Comma(
				&term.Compound{Functor: "write", Args: []term.Term{term.Atom(v.Name + " = ")}},
				term.Comma(
					&term.Compound{Functor: "write", Args: []term.Term{v}},
					term.Atom("nl"))))
		}
	}
	clauses := append(parsed, &term.Compound{
		Functor: ":-",
		Args:    []term.Term{term.Atom(compile.QueryEntry), body},
	})
	return clauses, goal, nil
}
