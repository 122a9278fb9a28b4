// Symbolic differentiation — the workload family of the paper's divide10 /
// log10 / ops8 / times10 benchmarks. This example runs the code analyses of
// paper §4 on it: the instruction mix, the Amdahl bound it implies, and the
// branch-predictability numbers that justify trace scheduling, then shows
// the measured effect of global compaction.
package main

import (
	"context"
	"fmt"
	"log"

	"symbol"
)

const src = `
d(U+V, X, DU+DV) :- !, d(U, X, DU), d(V, X, DV).
d(U-V, X, DU-DV) :- !, d(U, X, DU), d(V, X, DV).
d(U*V, X, DU*V+U*DV) :- !, d(U, X, DU), d(V, X, DV).
d(U/V, X, (DU*V-U*DV)/(V^2)) :- !, d(U, X, DU), d(V, X, DV).
d(U^N, X, DU*N*U^N1) :- !, integer(N), N1 is N-1, d(U, X, DU).
d(-U, X, -DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U)*DU) :- !, d(U, X, DU).
d(log(U), X, DU/U) :- !, d(U, X, DU).
d(X, X, D) :- !, D = 1.
d(_, _, 0).

main :- d((x+1) * ((x^2+2) * (x^3+3)), x, D), write(D), nl.
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
	fmt.Printf("derivative: %s\n", res.Output)

	a, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("instruction mix (dynamic):")
	fmt.Printf("  alu %5.1f%%  memory %5.1f%%  move %5.1f%%  control %5.1f%%\n",
		100*a.Mix.ALU, 100*a.Mix.Memory, 100*a.Mix.Move, 100*a.Mix.Control)
	fmt.Printf("Amdahl shared-memory asymptote: %.2f\n", a.AmdahlLimit)
	fmt.Printf("branch predictability: avg P_fp = %.3f over %d dynamic branches\n",
		a.Branches.AvgFaultyPrediction, a.Branches.DynBranches)
	fmt.Printf("90/50 rule check: backward taken %.2f, forward taken %.2f\n",
		a.Branches.BackwardTaken, a.Branches.ForwardTaken)

	seq, _ := prog.SeqCycles()
	fmt.Printf("\n%-22s %10s %8s\n", "machine", "cycles", "speedup")
	fmt.Printf("%-22s %10d %8.2f\n", "sequential", seq, 1.0)
	for _, cfg := range []struct {
		label string
		opts  []symbol.ScheduleOption
	}{
		{"3-unit, basic blocks", []symbol.ScheduleOption{symbol.WithBasicBlocksOnly()}},
		{"3-unit, traces", nil},
	} {
		sched, err := prog.ScheduleWith(symbol.DefaultMachine(3), cfg.opts...)
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
		fmt.Printf("%-22s %10d %8.2f   (avg unit %.1f ops)\n",
			cfg.label, sim.Cycles, symbol.Speedup(seq, sim.Cycles), sched.AvgTraceLen())
	}
}
