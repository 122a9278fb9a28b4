package symbol

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/ic"
)

// peakRSSBudget bounds the peak resident set of this package's test binary.
// Machine memory images are mappings that cost only the pages a run
// dirties, and every state is unmapped as soon as it is idle past the
// list's cap or finished with, so the binary peaked at 51–70 MiB beside a
// concurrent `go test ./...` on 2 vCPUs. The budget leaves about 3.5x of
// that for slower hosts; a path that lets dirtied images pile up until a
// collection, or goes back to heap-allocated images, blows through it.
const peakRSSBudget = 256 << 20

// TestMain runs the tests, then fails the binary if its peak resident set
// exceeded peakRSSBudget. The check is skipped under the race detector.
func TestMain(m *testing.M) {
	code := m.Run()
	if !raceEnabled {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			fmt.Fprintf(os.Stderr, "peak RSS check: getrusage: %v\n", err)
			code = 1
		} else if peak := ru.Maxrss << 10; peak > peakRSSBudget { // Maxrss is in KiB on Linux
			fmt.Fprintf(os.Stderr, "FAIL: peak RSS %d MiB exceeds the %d MiB budget of this package's tests\n",
				peak>>20, peakRSSBudget>>20)
			code = 1
		}
	}
	os.Exit(code)
}

// residentBytes reads the process's resident set from /proc/self/statm
// (its second field, in pages), after a collection that returns the free
// heap to the system, so the Go heap counts only its live objects.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(string(b))
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// TestPrivateStatesDoNotPileUp runs tak many times with no State, so each
// emu.Run makes a private machine state. Those states live outside the Go
// heap, where no collection is ever triggered by them: unless Run frees
// each before it returns, the dirtied images pile up. After a warm-up the
// resident set must not grow by even one run's dirtied pages.
func TestPrivateStatesDoNotPileUp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the resident set")
	}
	b, err := benchprog.Get("tak")
	if err != nil {
		t.Fatal(err)
	}
	icp := mustLoad(t, b.Source).IC()
	st := ic.NewState()
	if _, err := emu.Run(icp, emu.Options{State: st}); err != nil {
		t.Fatal(err)
	}
	image := int64(st.DirtyPages()) * ic.PageWords * 8 // one run's dirtied bytes
	st.Free()
	run := func(n int) {
		for range n {
			if _, err := emu.Run(icp, emu.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 120
	run(30)
	before := residentBytes(t)
	run(runs)
	grew := residentBytes(t) - before
	t.Logf("resident set grew %d KiB over %d runs; one run dirties %d KiB", grew>>10, runs, image>>10)
	if grew >= image {
		t.Fatalf("resident set grew %d KiB over %d runs, at least one run's %d KiB of dirtied pages", grew>>10, runs, image>>10)
	}
}
