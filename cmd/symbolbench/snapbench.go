package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/exec"
)

// The -snapbench mode quantifies what the binary snapshot format buys: how
// much bigger a snapshot is than the source it replaces (raw and gzipped,
// with a per-section breakdown), and how much faster a cold start gets when
// the compiler pipeline is replaced by a validated read and a predecode. The numbers
// land in a committed JSON baseline (BENCH_snapshot.json) that CI gates on:
// the median cold-start speedup across the corpus must clear an absolute
// floor, and no benchmark's speedup may fall more than a tolerance below
// the committed baseline.

// snapSection is one section's size inside a snapshot container.
type snapSection struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
}

// snapBenchResult is the committed record for one benchmark.
type snapBenchResult struct {
	Bench         string        `json:"bench"`
	SourceBytes   int           `json:"source_bytes"`
	SourceGzBytes int           `json:"source_gz_bytes"`
	SnapBytes     int           `json:"snapshot_bytes"`
	SnapGzBytes   int           `json:"snapshot_gz_bytes"`
	Sections      []snapSection `json:"sections"`
	CompileMS     float64       `json:"compile_ms"` // median of timed compiles
	LoadMS        float64       `json:"load_ms"`    // median of timed snapshot loads
	Speedup       float64       `json:"speedup"`    // CompileMS / LoadMS
}

// snapBenchFile is the JSON layout of BENCH_snapshot.json.
type snapBenchFile struct {
	GoVersion     string            `json:"go"`
	MedianSpeedup float64           `json:"median_speedup"`
	Results       []snapBenchResult `json:"results"`
}

// gzBytes returns the gzip-compressed size of b at the default level.
func gzBytes(b []byte) int {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b) //nolint:errcheck // bytes.Buffer cannot fail
	zw.Close()  //nolint:errcheck
	return buf.Len()
}

// medianOf returns the median of a non-empty sample (averaging the middle
// pair for even sizes).
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// timedMS runs f reps times and returns the per-run medians in
// milliseconds. The first (warm-up) run is measured like the rest: both the
// compile and the load path are cold-start costs, so excluding warm-up
// would flatter neither side consistently.
func timedMS(reps int, f func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/float64(time.Millisecond))
	}
	return out, nil
}

// benchSnapshots measures every corpus benchmark and writes jsonPath when
// non-empty. comparePath names a committed baseline: the run fails if any
// benchmark's speedup falls more than tolerance percent below its baseline
// figure. speedupFloor is the absolute gate on the median speedup.
func benchSnapshots(reps int, jsonPath, comparePath string, tolerance, speedupFloor float64) error {
	ctx := context.Background()
	file := snapBenchFile{GoVersion: runtime.Version()}
	var speedups []float64

	for _, b := range benchprog.All() {
		src := []byte(b.Source)
		prog, err := symbol.Load(ctx, src)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		snap := prog.Snapshot()
		info, err := symbol.SnapshotInfo(snap)
		if err != nil {
			return fmt.Errorf("%s: inspecting snapshot: %w", b.Name, err)
		}

		// Both paths are timed to the same finish line: an executable
		// predecoded stream. The compile path builds it lazily on first
		// run, so exec.Of is forced here; the snapshot path predecodes as
		// part of the load, so exec.Of only returns the cached streams.
		compiles, err := timedMS(reps, func() error {
			p, err := symbol.Load(ctx, src)
			if err == nil {
				exec.Of(p.IC())
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: timing compile: %w", b.Name, err)
		}
		loads, err := timedMS(reps, func() error {
			p, err := symbol.Load(ctx, snap)
			if err == nil {
				exec.Of(p.IC())
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: timing load: %w", b.Name, err)
		}

		r := snapBenchResult{
			Bench:         b.Name,
			SourceBytes:   len(src),
			SourceGzBytes: gzBytes(src),
			SnapBytes:     len(snap),
			SnapGzBytes:   gzBytes(snap),
			CompileMS:     medianOf(compiles),
			LoadMS:        medianOf(loads),
		}
		for _, s := range info.Sections {
			r.Sections = append(r.Sections, snapSection{Name: s.Name, Bytes: s.Bytes})
		}
		r.Speedup = r.CompileMS / r.LoadMS
		speedups = append(speedups, r.Speedup)
		file.Results = append(file.Results, r)

		fmt.Printf("%-16s src %6d B (%5d gz)  snap %6d B (%5d gz)  compile %8.3f ms  load %8.3f ms  speedup %6.1fx\n",
			b.Name, r.SourceBytes, r.SourceGzBytes, r.SnapBytes, r.SnapGzBytes, r.CompileMS, r.LoadMS, r.Speedup)
		for _, s := range r.Sections {
			fmt.Printf("    %-8s %7d bytes\n", s.Name, s.Bytes)
		}
	}
	file.MedianSpeedup = medianOf(speedups)
	fmt.Printf("median cold-start speedup: %.1fx over %d benchmarks\n", file.MedianSpeedup, len(file.Results))

	if jsonPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}

	if speedupFloor > 0 && file.MedianSpeedup < speedupFloor {
		return fmt.Errorf("median cold-start speedup %.1fx is below the %.1fx floor", file.MedianSpeedup, speedupFloor)
	}
	if comparePath != "" {
		if err := compareSnapBaseline(file, comparePath, tolerance); err != nil {
			return err
		}
	}
	return nil
}

// compareSnapBaseline fails if any measured speedup fell more than
// tolerance percent below the committed baseline's figure for the same
// benchmark. Benchmarks present on only one side are reported but not
// fatal, so the corpus can grow without invalidating the baseline.
func compareSnapBaseline(got snapBenchFile, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base snapBenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseBy := map[string]snapBenchResult{}
	for _, r := range base.Results {
		baseBy[r.Bench] = r
	}
	var failures []string
	for _, r := range got.Results {
		b, ok := baseBy[r.Bench]
		if !ok {
			fmt.Printf("note: %s not in baseline %s\n", r.Bench, path)
			continue
		}
		floor := b.Speedup * (1 - tolerance/100)
		if r.Speedup < floor {
			failures = append(failures,
				fmt.Sprintf("%s: speedup %.1fx is %.1f%% below baseline %.1fx (floor %.1fx)",
					r.Bench, r.Speedup, (1-r.Speedup/b.Speedup)*100, b.Speedup, floor))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "snapbench:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed vs %s beyond %.0f%% tolerance", len(failures), path, tolerance)
	}
	fmt.Printf("all %d benchmarks within %.0f%% of %s\n", len(got.Results), tolerance, path)
	return nil
}
