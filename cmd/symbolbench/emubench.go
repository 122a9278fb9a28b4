package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/ic"
	"symbol/internal/obs"
)

// The -emubench mode measures sequential emulator throughput in ICI
// steps/second — the architecture-level unit the paper's dynamic statistics
// are expressed in, and the one quantity the predecoded/fused execution
// core is supposed to improve without changing. Each run executes one
// benchmark to completion under an execution mode:
//
//	legacy — the original reference interpreter (the pre-fusion baseline)
//	nofuse — the predecoded stream with superinstruction fusion disabled
//	fused  — the predecoded stream with fusion (the default hot path)
//
// Output is benchstat-compatible (one Benchmark line per run, value pairs
// "ns/op" and "steps/s"), and -benchjson captures the same numbers as JSON
// so baselines can be committed and diffed. -smoke exits nonzero if fused
// throughput falls below the unfused stream on the same invocation (fusion
// removes dispatches and can only win, so losing to nofuse means the fused
// loop regressed).

// emuModeOpts maps a mode name to the emulator options selecting it.
var emuModeOpts = map[string]emu.Options{
	"legacy": {Legacy: true},
	"nofuse": {NoFuse: true},
	"fused":  {},
}

// emuBenchRun is one timed execution.
type emuBenchRun struct {
	Steps       int64   `json:"steps"`
	NS          int64   `json:"ns"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// emuBenchResult aggregates the runs of one benchmark × mode. The static
// stream sizes are properties of the program, not of the measured mode, so
// every record carries all of them (a record must be self-describing once
// it lands in a committed baseline file).
type emuBenchResult struct {
	Bench     string        `json:"bench"`
	Mode      string        `json:"mode"`
	PlainOps  int           `json:"static_icis"`
	FusedOps  int           `json:"static_fused_ops"`
	Runs      []emuBenchRun `json:"runs"`
	BestSPS   float64       `json:"best_steps_per_sec"`
	MeanSPS   float64       `json:"mean_steps_per_sec"`
	GoVersion string        `json:"go,omitempty"`
}

// benchEmuSteps runs the steps-throughput benchmark. modes is a comma list
// or "all"; results are printed benchstat-style and optionally written as
// JSON. With smoke set, the nofuse and fused modes are always measured and
// the run fails if fused throughput is below nofuse. statsPath, when
// non-empty, dumps one execution's full symbol.Stats per mode as JSON.
// comparePath, when non-empty, names a committed baseline JSON (an earlier
// -benchjson file) and the run fails if any measured mode's best steps/s
// falls more than tolerance percent below the baseline's — the CI guard
// that keeps the always-on stats counters within their overhead budget.
func benchEmuSteps(name, modes string, runs int, jsonPath string, smoke bool, statsPath, comparePath string, tolerance float64) error {
	b, err := benchprog.Get(name)
	if err != nil {
		return err
	}
	prog, err := symbol.Load(context.Background(), []byte(b.Source))
	if err != nil {
		return err
	}
	xp := exec.Of(prog.IC())

	want := []string{}
	if smoke {
		want = []string{"nofuse", "fused"}
	} else if modes == "all" {
		want = []string{"legacy", "nofuse", "fused"}
	} else {
		for _, m := range strings.Split(modes, ",") {
			want = append(want, strings.TrimSpace(m))
		}
	}

	results := make([]emuBenchResult, 0, len(want))
	modeStats := map[string]obs.Stats{}
	for _, mode := range want {
		base, ok := emuModeOpts[mode]
		if !ok {
			return fmt.Errorf("unknown emulation mode %q (legacy, nofuse, fused)", mode)
		}
		r := emuBenchResult{
			Bench: name, Mode: mode,
			PlainOps: xp.Stats.PlainOps, FusedOps: xp.Stats.FusedOps,
		}
		// One machine state is recycled across every execution (exactly what
		// the pooled engine does), so the timings measure interpretation, not
		// the multi-megaword state allocation. Each timed run repeats the
		// query until it has accumulated enough wall time to be stable.
		st := ic.NewState()
		opts := base
		opts.State = st
		for i := 0; i < runs; i++ {
			var steps, iters int64
			start := time.Now()
			for {
				res, err := emu.Run(prog.IC(), opts)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", name, mode, err)
				}
				if res.Status != 0 || res.Output != b.Expect {
					return fmt.Errorf("%s/%s: wrong answer (status=%d output=%q)", name, mode, res.Status, res.Output)
				}
				st.Reset()
				modeStats[mode] = res.Stats
				steps += res.Steps
				iters++
				if time.Since(start) >= 100*time.Millisecond {
					break
				}
			}
			ns := time.Since(start).Nanoseconds()
			sps := float64(steps) / (float64(ns) / 1e9)
			r.Runs = append(r.Runs, emuBenchRun{Steps: steps, NS: ns, StepsPerSec: sps})
			r.MeanSPS += sps
			if sps > r.BestSPS {
				r.BestSPS = sps
			}
			fmt.Printf("BenchmarkEmuSteps/%s/%s \t%8d\t%12d ns/op\t%14.0f steps/s\n",
				name, mode, iters, ns/iters, sps)
		}
		r.MeanSPS /= float64(len(r.Runs))
		results = append(results, r)
	}

	for _, r := range results {
		fmt.Printf("# %s/%s: best %.2f Msteps/s, mean %.2f Msteps/s over %d runs (%d static ICIs, %d fused ops)\n",
			r.Bench, r.Mode, r.BestSPS/1e6, r.MeanSPS/1e6, len(r.Runs), r.PlainOps, r.FusedOps)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", jsonPath)
	}

	if statsPath != "" {
		data, err := json.MarshalIndent(modeStats, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(statsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", statsPath)
	}

	if comparePath != "" {
		if err := compareBaseline(results, comparePath, tolerance); err != nil {
			return err
		}
	}

	if smoke {
		best := map[string]float64{}
		for _, r := range results {
			best[r.Mode] = r.BestSPS
		}
		if best["fused"] < best["nofuse"] {
			return fmt.Errorf("smoke: fused %.2f Msteps/s < nofuse %.2f Msteps/s — fusion regressed",
				best["fused"]/1e6, best["nofuse"]/1e6)
		}
		fmt.Printf("# smoke ok: fused %.2f Msteps/s >= nofuse %.2f Msteps/s\n",
			best["fused"]/1e6, best["nofuse"]/1e6)
	}
	return nil
}

// compareBaseline checks every measured mode against a committed -benchjson
// baseline, failing if best steps/s dropped more than tolerance percent.
// Modes absent from the baseline are reported but not failed, so a new mode
// can land before its baseline is regenerated.
func compareBaseline(results []emuBenchResult, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline []emuBenchResult
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	base := map[string]float64{}
	for _, r := range baseline {
		base[r.Bench+"/"+r.Mode] = r.BestSPS
	}
	for _, r := range results {
		key := r.Bench + "/" + r.Mode
		want, ok := base[key]
		if !ok {
			fmt.Printf("# compare: %s not in %s, skipping\n", key, path)
			continue
		}
		floor := want * (1 - tolerance/100)
		if r.BestSPS < floor {
			return fmt.Errorf("compare: %s best %.2f Msteps/s is more than %.1f%% below baseline %.2f Msteps/s (%s)",
				key, r.BestSPS/1e6, tolerance, want/1e6, path)
		}
		fmt.Printf("# compare ok: %s best %.2f Msteps/s vs baseline %.2f Msteps/s (floor %.2f at -tolerance %.1f)\n",
			key, r.BestSPS/1e6, want/1e6, floor/1e6, tolerance)
	}
	return nil
}

// withProfiles wraps fn with optional CPU and allocation profiling.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := fn()
	if memPath != "" {
		f, merr := os.Create(memPath)
		if merr != nil {
			if err == nil {
				err = merr
			}
			return err
		}
		defer f.Close()
		if merr := pprof.Lookup("allocs").WriteTo(f, 0); merr != nil && err == nil {
			err = merr
		}
	}
	return err
}
