// N-queens — a backtracking-search workload. This example sweeps the
// number of VLIW units and shows the speed-up saturating at 3-4 units, the
// paper's central Table 3 / Figure 6 result: with a shared memory the
// memory operations become the bottleneck and Amdahl's law caps the
// achievable instruction-level parallelism at about 3.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"symbol"
)

const src = `
main :- queens(6, Qs), write(Qs), nl.
queens(N, Qs) :- range(1, N, Ns), place(Ns, [], Qs).
place([], Qs, Qs).
place(Unplaced, Safe, Qs) :-
    selectq(Q, Unplaced, Rest),
    \+ attack(Q, Safe),
    place(Rest, [Q|Safe], Qs).
attack(X, Xs) :- attack3(X, 1, Xs).
attack3(X, N, [Y|_]) :- X =:= Y+N.
attack3(X, N, [Y|_]) :- X =:= Y-N.
attack3(X, N, [_|Ys]) :- N1 is N+1, attack3(X, N1, Ys).
selectq(X, [X|T], T).
selectq(X, [H|T], [H|R]) :- selectq(X, T, R).
range(N, N, [N]) :- !.
range(M, N, [M|Ns]) :- M < N, M1 is M+1, range(M1, N, Ns).
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
	fmt.Printf("first solution: %s", res.Output)

	seq, err := prog.SeqCycles()
	if err != nil {
		log.Fatal(err)
	}
	a, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memory operations: %.1f%% → Amdahl asymptote %.2f\n\n",
		100*a.Mix.Memory, a.AmdahlLimit)

	fmt.Printf("%-8s %10s %8s\n", "units", "cycles", "speedup")
	for _, u := range []int{1, 2, 3, 4, 5, 8} {
		sched, err := prog.ScheduleWith(symbol.DefaultMachine(u))
		if err != nil {
			log.Fatal(err)
		}
		sim, err := sched.Simulate()
		if err != nil {
			log.Fatal(err)
		}
		if sim.Output != res.Output {
			log.Fatal("compacted run diverged")
		}
		su := symbol.Speedup(seq, sim.Cycles)
		bar := strings.Repeat("*", int(su/a.AmdahlLimit*50+0.5))
		fmt.Printf("%-8d %10d %8.2f %s\n", u, sim.Cycles, su, bar)
	}
	fmt.Println("\n(the bar scale tops out at the Amdahl asymptote)")
}
