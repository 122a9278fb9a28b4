package symbol

import (
	"fmt"
	"os"
	"syscall"
	"testing"
)

// peakRSSBudget bounds the peak resident set of this package's test binary.
// Every run borrows its machine state from the process-wide idle list, so
// the binary holds at most GOMAXPROCS memory images plus what the tests
// build themselves; a path that goes back to one fresh 152 MB state per run
// or per engine blows through the budget.
const peakRSSBudget = 2 << 30

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
