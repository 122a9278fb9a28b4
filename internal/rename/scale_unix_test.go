//go:build unix

package rename

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"

	"symbol/internal/ic"
)

// synthetic returns a program of n predicates, each building structures
// and lists on the heap (pointer bumps to fold) and calling the next, so
// the code grows linearly in n and every predicate mints fresh temporaries.
func synthetic(n int) string {
	var sb strings.Builder
	sb.WriteString("main :- p0(1, _).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "p%d(X, f(X, g(Y, a%d), [X, Y, Z], h(Z))) :- Y is X + %d, Z is Y * 2, q%d(Y).\n", i, i, i, i)
		fmt.Fprintf(&sb, "p%d([], k(%d)).\n", i, i)
		fmt.Fprintf(&sb, "q%d(V) :- V > %d, !.\n", i, i)
		fmt.Fprintf(&sb, "q%d(_).\n", i)
	}
	return sb.String()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// foldTimes returns the least CPU time a Fold of each program took over
// alternating rounds (at least three, and a quarter second). CPU time, not
// wall time, so a loaded machine that preempts the longer folds more often
// does not count against the pass. The collector runs between timed folds,
// never inside one, and is the only other work the process does.
func foldTimes(a, b *ic.Program) (ta, tb time.Duration) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fastest := func(best *time.Duration, p *ic.Program, first bool) {
		runtime.GC()
		start := cpuTime()
		Fold(p)
		if d := cpuTime() - start; first || d < *best {
			*best = d
		}
	}
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < 250*time.Millisecond; round++ {
		fastest(&ta, a, round == 0)
		fastest(&tb, b, round == 0)
	}
	return ta, tb
}

// TestFoldScalesLinearly guards against the pass going superlinear in code
// size: a program four times larger must fold in under eight times the
// time. The linear pass measures 4-5 on an idle machine and up to about
// 7.5 beside a busy one (cache and memory contention hit the larger fold
// harder); a pending-delta set that grows with every defined register, and
// is walked at every block boundary, measures 15 or more. The bound is a
// same-process ratio, so it holds on any machine.
func TestFoldScalesLinearly(t *testing.T) {
	const n = 25
	small := expandSource(t, synthetic(n))
	large := expandSource(t, synthetic(4*n))
	if r := float64(len(large.Code)) / float64(len(small.Code)); r < 3.5 || r > 4.5 {
		t.Fatalf("synthetic programs are %d and %d ICIs, not a 4x step", len(small.Code), len(large.Code))
	}
	// Memory contention from other processes can still stretch the
	// larger fold; only a ratio that stays high on every attempt fails.
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		ts, tl := foldTimes(small, large)
		ratio = float64(tl) / float64(ts)
		t.Logf("Fold: %d ICIs %v, %d ICIs %v, ratio %.1f", len(small.Code), ts, len(large.Code), tl, ratio)
		if ratio < 8 {
			return
		}
	}
	t.Errorf("Fold time grew %.1fx for 4x the code; want < 8x", ratio)
}
