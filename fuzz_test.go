package symbol

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Whole-program fuzz: generate random stratified Prolog programs (facts, a
// layer of rules with random control features, an all-solutions driver) and
// check that trace-scheduled VLIW execution is observably identical to
// sequential emulation. Stratification guarantees termination; the
// failure-driven driver makes every solution (and therefore the whole
// backtracking behaviour) observable.

type progGen struct {
	rng *rand.Rand
	b   strings.Builder
}

func (g *progGen) constant() string {
	if g.rng.Intn(2) == 0 {
		return fmt.Sprint(g.rng.Intn(6))
	}
	return []string{"a", "b", "c"}[g.rng.Intn(3)]
}

// facts emits the base relation f0/2.
func (g *progGen) facts() {
	n := 3 + g.rng.Intn(5)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&g.b, "f0(%s, %s).\n", g.constant(), g.constant())
	}
}

// rule emits one clause of f1/2 built from f0 with random extras.
func (g *progGen) rule(i int) {
	var body []string
	body = append(body, "f0(X, Z)")
	switch g.rng.Intn(5) {
	case 0:
		body = append(body, "f0(Z, Y)")
	case 1:
		body = append(body, "Y = Z")
	case 2:
		body = append(body, fmt.Sprintf("\\+ f0(Z, %s)", g.constant()))
		body = append(body, "Y = Z")
	case 3:
		body = append(body, fmt.Sprintf("( f0(Z, Y) -> true ; Y = %s )", g.constant()))
	default:
		body = append(body, "integer(Z) -> Y is Z+1 ; Y = Z")
		body = []string{"f0(X, Z)", fmt.Sprintf("( %s )", strings.Join(body[1:], ", "))}
	}
	if g.rng.Intn(3) == 0 {
		body = append(body, "!")
	}
	fmt.Fprintf(&g.b, "f1(X, Y) :- %s.\n", strings.Join(body, ", "))
}

// generate builds a full program whose main enumerates all f1 solutions.
func (g *progGen) generate() string {
	g.b.Reset()
	g.facts()
	rules := 1 + g.rng.Intn(3)
	for i := 0; i < rules; i++ {
		g.rule(i)
	}
	// A second layer exercising calls into f1 and list building.
	g.b.WriteString(`
collect(X, L) :- f1(X, Y), L = [X, Y].
main :- collect(X, L), write(L), nl, fail.
main :- write(end), nl.
`)
	return g.b.String()
}

func TestFuzzSeqVsVLIW(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	gen := &progGen{rng: rng}
	cases := 40
	if testing.Short() {
		cases = 10
	}
	for i := 0; i < cases; i++ {
		src := gen.generate()
		prog := mustLoad(t, src)
		seq, err := prog.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("case %d: run: %v\n%s", i, err, src)
		}
		for _, u := range []int{1, 3} {
			sched, err := prog.ScheduleWith(DefaultMachine(u))
			if err != nil {
				t.Fatalf("case %d/%du: schedule: %v\n%s", i, u, err, src)
			}
			sim, err := sched.Simulate()
			if err != nil {
				t.Fatalf("case %d/%du: simulate: %v\n%s", i, u, err, src)
			}
			if sim.Output != seq.Output || sim.Succeeded != seq.Succeeded {
				t.Fatalf("case %d/%du: diverged\nseq:  %q\nvliw: %q\nprogram:\n%s",
					i, u, seq.Output, sim.Output, src)
			}
		}
	}
}

// TestFuzzBasicBlocksMode runs a smaller fuzz round with trace scheduling
// disabled (catches emission bugs specific to single-block traces).
func TestFuzzBasicBlocksMode(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gen := &progGen{rng: rng}
	for i := 0; i < 10; i++ {
		src := gen.generate()
		prog := mustLoad(t, src)
		seq, err := prog.Run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		sched, err := prog.ScheduleWith(BAMMachine(), WithBasicBlocksOnly())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		sim, err := sched.Simulate()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sim.Output != seq.Output {
			t.Fatalf("case %d diverged\n%s", i, src)
		}
	}
}
