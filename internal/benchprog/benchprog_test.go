package benchprog_test

import (
	"context"
	"testing"

	"symbol"
	"symbol/internal/benchprog"
)

// TestRegistry checks basic registry integrity.
func TestRegistry(t *testing.T) {
	if len(benchprog.Names()) < 15 {
		t.Fatalf("expected at least 15 benchmarks, got %d", len(benchprog.Names()))
	}
	if len(benchprog.Suite()) != 14 {
		t.Fatalf("paper suite must have 14 rows, got %d", len(benchprog.Suite()))
	}
	if _, err := benchprog.Get("nosuch"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestBenchmarksRun compiles and executes every benchmark program and
// verifies the expected output. Heavy programs are skipped with -short.
func TestBenchmarksRun(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Heavy && testing.Short() {
				t.Skip("heavy benchmark skipped in short mode")
			}
			prog, err := symbol.Load(context.Background(), []byte(b.Source))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if u := prog.Undefined(); len(u) != 0 {
				t.Fatalf("undefined predicates: %v", u)
			}
			res, err := prog.Run(context.Background(), symbol.RunOptions{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Succeeded {
				t.Fatalf("benchmark failed (no solution), output %q", res.Output)
			}
			if b.Expect != "" && res.Output != b.Expect {
				t.Fatalf("output %q, want %q", res.Output, b.Expect)
			}
			t.Logf("steps=%d output=%q", res.Steps, res.Output)
		})
	}
}
