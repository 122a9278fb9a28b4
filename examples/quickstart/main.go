// Quickstart: compile a Prolog program, run it sequentially, compact it
// with trace scheduling, and measure the VLIW cycle count.
package main

import (
	"context"
	"fmt"
	"log"

	"symbol"
)

const src = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).

nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).

main :- nrev([1,2,3,4,5,6,7,8,9,10], R), write(R), nl.
`

func main() {
	ctx := context.Background()
	// 1. Compile Prolog → BAM → Intermediate Code.
	prog, err := symbol.Load(ctx, []byte(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled to %d intermediate-code instructions\n", prog.CodeSize())

	// 2. Run sequentially (this is also what produces the answer).
	res, err := prog.Run(ctx, symbol.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential answer: %s", res.Output)

	// 3. The pure sequential machine's cycle count (memory and control
	//    operations cost 2 cycles, everything else 1).
	seq, err := prog.SeqCycles()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential machine: %d cycles\n", seq)

	// 4. Trace-schedule onto a 3-unit VLIW and simulate.
	sched, err := prog.ScheduleWith(symbol.DefaultMachine(3))
	if err != nil {
		log.Fatal(err)
	}
	sim, err := sched.Simulate()
	if err != nil {
		log.Fatal(err)
	}
	if sim.Output != res.Output {
		log.Fatal("compacted code produced a different answer!")
	}
	fmt.Printf("3-unit VLIW:        %d cycles  (speed-up %.2f)\n",
		sim.Cycles, symbol.Speedup(seq, sim.Cycles))
	fmt.Printf("average compaction unit: %.1f operations\n", sched.AvgTraceLen())
}
