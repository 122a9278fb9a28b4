// Hardware-accelerator scenario (paper §5): the SYMBOL prototype was built
// as a Prolog accelerator attached to a host workstation and "applied to
// control tasks in autonomous vehicle navigation problems". This example
// runs a small rule-based route planner on the Symbol-3 prototype model —
// three processors, three-cycle pipelined memory, two-cycle delayed
// branches, 30 MHz — and reports absolute execution time the way the
// paper's Table 4 does.
package main

import (
	"context"
	"fmt"
	"log"

	"symbol"
)

// A waypoint graph with costs; the planner searches a best route by
// depth-first search with a cost bound (iterative tightening).
const src = `
edge(base, crossing, 4).
edge(base, ridge, 6).
edge(crossing, tunnel, 5).
edge(crossing, marsh, 9).
edge(ridge, tunnel, 4).
edge(ridge, tower, 9).
edge(tunnel, tower, 3).
edge(marsh, depot, 4).
edge(tower, depot, 4).
edge(tunnel, depot, 9).

route(A, B, C, [A|P]) :- go(A, B, C, [A], P).
go(A, A, 0, _, []).
go(A, B, C, Seen, [N|P]) :-
    edge(A, N, EC),
    \+ member(N, Seen),
    C >= EC,
    C1 is C - EC,
    go(N, B, C1, [N|Seen], P).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

best(A, B, C) :- between1(1, 40, C), route(A, B, C, _), !.
between1(L, _, L).
between1(L, H, X) :- L < H, L1 is L+1, between1(L1, H, X).

main :- best(base, depot, C), write(cost(C)), nl,
        route(base, depot, C, P), !, write(P), nl.
`

func main() {
	ctx := context.Background()
	prog, err := symbol.Load(ctx, []byte(src))
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Run(ctx, symbol.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planner answer:\n%s\n", res.Output)

	// The Symbol-3 prototype model: §5.1's implementation constraints.
	conf := symbol.DefaultMachine(3)
	conf.MemLatency = 3   // three-cycle pipelined memory
	conf.BranchBubble = 2 // two-cycle delayed branches
	const clockMHz = 30.0

	sched, err := prog.ScheduleWith(conf)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := sched.Simulate()
	if err != nil {
		log.Fatal(err)
	}
	if sim.Output != res.Output {
		log.Fatal("accelerator run diverged from host emulation")
	}
	us := float64(sim.Cycles) / clockMHz
	fmt.Printf("Symbol-3 accelerator: %d cycles = %.1f µs at %.0f MHz\n",
		sim.Cycles, us, clockMHz)

	seq, err := prog.SeqCycles()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speed-up over the sequential model: %.2f\n",
		symbol.Speedup(seq, sim.Cycles))
}
