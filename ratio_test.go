package symbol

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"symbol/internal/benchprog"
	"symbol/internal/exec"
)

// The TestRatio tests time two paths in one process, interleaved, across
// the whole corpus, and gate on the ratio of their medians. A ratio of two
// paths measured seconds apart on one machine does not depend on the
// machine's speed, so unlike an absolute figure it can gate CI. Each side of
// each program takes the median of ratioRounds samples; the corpus-wide
// figure is a geomean or a median over programs, so no one program decides.

const ratioRounds = 9

// timed returns the wall time of one call of f, failing the test on error.
func timed(t *testing.T, f func() error) time.Duration {
	t.Helper()
	start := time.Now()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// medianRatio runs a and b ratioRounds times each, alternating which goes
// first, and returns median(a) / median(b) with the two medians.
func medianRatio(t *testing.T, a, b func() error) (ratio float64, ma, mb time.Duration) {
	t.Helper()
	as := make([]time.Duration, 0, ratioRounds)
	bs := make([]time.Duration, 0, ratioRounds)
	for i := 0; i < ratioRounds; i++ {
		if i%2 == 0 {
			as = append(as, timed(t, a))
			bs = append(bs, timed(t, b))
		} else {
			bs = append(bs, timed(t, b))
			as = append(as, timed(t, a))
		}
	}
	slices.Sort(as)
	slices.Sort(bs)
	ma, mb = as[ratioRounds/2], bs[ratioRounds/2]
	return float64(ma) / float64(mb), ma, mb
}

func skipTiming(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing ratio skipped under -short")
	}
}

// TestRatioFusedOverNofuse gates superinstruction fusion: across the
// corpus, a fused Engine.Run must not be slower than a nofuse one, as the
// geomean of the per-program speedups (nofuse median over fused median).
// The per-program table it logs shows which programs fusion does not help.
func TestRatioFusedOverNofuse(t *testing.T) {
	skipTiming(t)
	ctx := context.Background()
	logSum := 0.0
	progs := benchprog.All()
	for _, b := range progs {
		eng := NewEngine(mustLoad(t, b.Source))
		run := func(d Dispatch) func() error {
			return func() error {
				_, err := eng.Run(ctx, RunOptions{Dispatch: d})
				return err
			}
		}
		fused, nofuse := run(DispatchFused), run(DispatchNoFuse)
		if err := fused(); err != nil { // warm the streams and the state list
			t.Fatalf("%s: %v", b.Name, err)
		}
		ratio, mn, mf := medianRatio(t, nofuse, fused)
		logSum += math.Log(ratio)
		t.Logf("%-14s nofuse %9.1f us  fused %9.1f us  speedup %.2f",
			b.Name, us(mn), us(mf), ratio)
	}
	geo := math.Exp(logSum / float64(len(progs)))
	t.Logf("geomean fused speedup over nofuse: %.3f across %d programs", geo, len(progs))
	if geo < 1.0 {
		t.Errorf("fused runs are slower than nofuse runs: geomean speedup %.3f < 1.0", geo)
	}
}

// TestRatioSnapshotBootOverCompile gates the snapshot format's reason to
// exist: loading a program's snapshot must reach an executable predecoded
// stream at least twice as fast as compiling its source, as the median of
// the per-program speedups. Both sides stop at exec.Of: the source path
// predecodes on first use, the snapshot path while loading.
func TestRatioSnapshotBootOverCompile(t *testing.T) {
	skipTiming(t)
	ctx := context.Background()
	var speedups []float64
	for _, b := range benchprog.All() {
		src := []byte(b.Source)
		snap := mustLoad(t, b.Source).Snapshot()
		boot := func(data []byte) func() error {
			return func() error {
				p, err := Load(ctx, data)
				if err == nil {
					exec.Of(p.icp)
				}
				return err
			}
		}
		ratio, mc, ms := medianRatio(t, boot(src), boot(snap))
		speedups = append(speedups, ratio)
		t.Logf("%-14s compile %9.1f us  boot %9.1f us  speedup %.2f", b.Name, us(mc), us(ms), ratio)
	}
	slices.Sort(speedups)
	med := speedups[len(speedups)/2]
	t.Logf("median snapshot boot speedup over compile: %.2f across %d programs", med, len(speedups))
	if med < 2 {
		t.Errorf("snapshot boots are not twice as fast as source compiles: median speedup %.2f < 2", med)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
