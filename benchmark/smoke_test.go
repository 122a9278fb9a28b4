package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a config with a few operations per pass.
func tiny(workload string, trace bool) config {
	o := defaultOptions()
	o.opsPerPass = 12
	return config{workload: workload, seed: 1, passes: 1, trace: trace, opts: o}
}

func checkMetrics(t *testing.T, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestEveryMetricEmitted runs each workload with tiny operation counts and
// checks that every end-to-end metric of BENCHMARK.json is emitted with its
// unit, and that a traced run emits every per-layer metric.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	ctx := context.Background()
	for _, w := range workloads {
		res, _, err := run(ctx, tiny(w.name, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, res, s.EndToEnd)
	}
	res, rep, err := run(ctx, tiny(s.Workloads[0].Name, true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
	}
	checkMetrics(t, res, s.PerLayer)
	if len(rep.Spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	rows, ok := rep.Rows["cold-start"].([]*compileRow)
	if !ok || len(rows) < 2 || rows[len(rows)-1].Prog != "geomean" || rows[len(rows)-1].RenameMs <= 0 {
		t.Errorf("cold-start rows lack a geomean row: %v", rep.Rows["cold-start"])
	}
}

// TestWrongOutputFails corrupts one program's expected output and checks
// that its operations count as failed on every workload that checks it.
func TestWrongOutputFails(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"cold-start", "query", "serve"} {
		cfg := tiny(name, false)
		cfg.opts.opsPerPass = 0 // whole passes, so every program runs
		if name == "query" {
			cfg.opts.opsPerPass = 3000
		}
		if name == "serve" {
			cfg.opts.opsPerPass = 100
			defer swapAnswers()()
		}
		for prog := range cfg.opts.expect {
			cfg.opts.expect[prog] = "wrong\n"
		}
		res, _, err := run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v, %d of %d failed; want every operation failed", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// swapAnswers replaces every hand-written serve answer with a wrong one
// and returns the function that restores them.
func swapAnswers() func() {
	savedHot, savedCold, savedPages := hotGoals, coldGoals, pageWant
	for c := range coldGoals {
		hotGoals[c].want = "wrong\n"
		coldGoals[c].want = "wrong\n"
		pageWant[c] = []string{"wrong\n"}
	}
	return func() { hotGoals, coldGoals, pageWant = savedHot, savedCold, savedPages }
}
