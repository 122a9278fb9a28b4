package symbol

import (
	"runtime"
	"testing"

	"symbol/internal/benchprog"
	"symbol/internal/exec"
)

// TestLoadedProgramHeap bounds what loaded programs keep resident: the
// live heap that the 22 corpus programs hold once each is compiled from
// source and predecoded, as its first run leaves it. A loaded Program keeps
// only what a run needs (the ICI code and its fused stream, not the BAM
// unit it was expanded from), so the corpus fits in 5 MiB; retaining the
// BAM unit takes it past 10. It is not parallel, so no other test's
// allocations land between the two readings.
func TestLoadedProgramHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	corpus := benchprog.All()
	progs := make([]*Program, 0, len(corpus))
	before := live()
	for _, b := range corpus {
		p := mustLoad(t, b.Source)
		exec.Of(p.icp)
		progs = append(progs, p)
	}
	grew := live() - before
	runtime.KeepAlive(progs)
	t.Logf("%d loaded programs hold %.2f MiB of live heap", len(progs), float64(grew)/(1<<20))
	const limit = 5 << 20
	if grew > limit {
		t.Fatalf("%d loaded programs hold %d KiB of live heap, over the %d KiB bound", len(progs), grew>>10, limit>>10)
	}
}
