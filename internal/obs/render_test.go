package obs

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"symbol/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.prom renderings from the current WriteTo")

// checkRendering compares a WriteTo rendering against its golden file and
// against further renderings of the same snapshot, which must not differ.
func checkRendering(t *testing.T, file string, writeTo func(io.Writer) (int64, error)) {
	t.Helper()
	render := func() string {
		var sb strings.Builder
		n, err := writeTo(&sb)
		if err != nil || n != int64(sb.Len()) {
			t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, sb.Len())
		}
		return sb.String()
	}
	got := render()
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rendering differs from %s\ngot:\n%swant:\n%s", file, got, want)
	}
	for i := 0; i < 20; i++ {
		if again := render(); again != got {
			t.Fatalf("two renderings of one snapshot differ:\n%s\n---\n%s", got, again)
		}
	}
}

// TestSnapshotRendering pins the full Prometheus text of a fixed engine
// snapshot with several fault kinds.
func TestSnapshotRendering(t *testing.T) {
	var m Metrics
	for i, wall := range []time.Duration{3 * time.Microsecond, 40 * time.Millisecond} {
		m.RecordStart()
		m.RecordDone(&Stats{Steps: int64(100 << (4 * i)), MemOps: 40, ALUOps: 20, MoveOps: 20,
			ControlOps: 15, SysOps: 5, ChoicePoints: 3, TrailUndos: 2, Wall: wall}, i == 0)
	}
	for _, k := range []fault.Kind{fault.StepLimit, fault.HeapOverflow, fault.ZeroDivide, fault.StepLimit, fault.Canceled} {
		m.RecordStart()
		m.RecordFailed(k, 70*time.Microsecond)
	}
	m.RecordRejected()
	m.RecordPoolGet()
	m.RecordPoolGet()
	m.RecordPoolMiss()
	m.RecordReset(12)
	checkRendering(t, "testdata/snapshot.prom", m.Snapshot().WriteTo)
}

// TestServerSnapshotRendering pins the full Prometheus text of a fixed
// server snapshot.
func TestServerSnapshotRendering(t *testing.T) {
	var m ServerMetrics
	for _, wait := range []time.Duration{0, 5 * time.Microsecond, 3 * time.Millisecond} {
		m.RecordEnqueue()
		m.RecordDequeue(wait)
	}
	m.RecordEnqueue()
	m.RecordAdmitted()
	m.RecordAdmitted()
	m.RecordReleased()
	m.RecordShed(ShedQueueFull)
	m.RecordShed(ShedTenantQuota)
	m.RecordPanic()
	m.RecordClientGone()
	m.RecordStatus(200)
	m.RecordStatus(200)
	m.RecordStatus(503)
	m.RecordBatch(1, 1)
	m.RecordBatch(7, 2)
	m.RecordCursorOpened()
	m.RecordCursorOpened()
	m.RecordCursorClosed(true)
	m.RecordHistRegression(4)
	m.SetDraining(true)
	checkRendering(t, "testdata/server.prom", m.Snapshot().WriteTo)
}
