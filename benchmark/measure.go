package main

import (
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one timed operation.
type sample struct {
	class string // operation kind, e.g. "boot" or "compile"
	prog  string // corpus program or request target
	d     time.Duration
}

// phase accumulates the timed part of a run: per-operation latencies,
// failures, and the process CPU and Go runtime counters spent inside timed
// sections. Checking that happens outside a section is not counted.
type phase struct {
	mu       sync.Mutex
	samples  []sample
	failed   int
	busy     time.Duration // wall time inside timed sections
	cpu      time.Duration // process user+system CPU inside timed sections
	alloc    uint64        // Go heap bytes allocated inside timed sections
	gcs      uint64        // GC cycles completed inside timed sections
	heapLive uint64        // live heap after the GC that precedes timing
	passes   []passStat
}

// passStat is one pass's share of a phase. Every pass runs the same
// operation multiset, so per-pass figures are comparable and their median
// is robust to a burst of host noise inside one pass.
type passStat struct {
	ops    int
	busy   time.Duration
	cpu    time.Duration
	peakMB float64 // resident high-water mark during the pass
}

// section marks the start of a contiguous timed stretch of a phase.
type section struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func (ph *phase) begin() section {
	alloc, gcs := runtimeCounters()
	return section{wall: time.Now(), cpu: processCPU(), alloc: alloc, gcs: gcs}
}

func (ph *phase) end(s section) {
	wall := time.Since(s.wall)
	cpu := processCPU() - s.cpu
	alloc, gcs := runtimeCounters()
	ph.mu.Lock()
	ph.busy += wall
	ph.cpu += cpu
	ph.alloc += alloc - s.alloc
	ph.gcs += gcs - s.gcs
	ph.mu.Unlock()
}

// record adds one operation's latency; ok=false counts it as failed.
func (ph *phase) record(class, prog string, d time.Duration, ok bool) {
	ph.mu.Lock()
	ph.samples = append(ph.samples, sample{class: class, prog: prog, d: d})
	if !ok {
		ph.failed++
	}
	ph.mu.Unlock()
}

// fail counts n already-recorded operations as failed (a check that could
// only run after the operations finished, such as a Table 3 pass average).
func (ph *phase) fail(n int) {
	ph.mu.Lock()
	ph.failed += n
	ph.mu.Unlock()
}

// settle collects before the timed phase and returns free memory to the
// operating system, so every run starts from the same heap and resident
// set whatever its set-up left behind, and records the live heap.
func (ph *phase) settle() {
	debug.FreeOSMemory()
	ph.heapLive = liveHeap()
}

// tailRank is the number of samples strictly beyond the tail percentile:
// the tail is the highest percentile that still has this many samples
// above it.
const tailRank = 10

// latencySummary is the p50 and the tail of a phase's latencies.
type latencySummary struct {
	n        int
	p50      time.Duration
	tail     time.Duration
	tailPct  float64 // the percentile the tail reports
	tailKind string  // operation class of the tail sample
}

func summarize(samples []sample) latencySummary {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].d < s[j].d })
	n := len(s)
	out := latencySummary{n: n}
	if n == 0 {
		return out
	}
	out.p50 = s[(n-1)/2].d
	i := n - 1 - tailRank
	if i < 0 {
		i = 0
	}
	out.tail = s[i].d
	out.tailPct = 100 * float64(i) / float64(max(n-1, 1))
	out.tailKind = s[i].class + "/" + s[i].prog
	return out
}

// endToEnd derives the six user-facing metrics of a phase. Latency
// percentiles are taken over every sample; throughput, CPU per operation
// and peak RSS are medians over passes, so a stall in one pass does not
// move them.
func endToEnd(ph *phase, setup time.Duration) map[string]metric {
	ls := summarize(ph.samples)
	var tput, cpu, rss []float64
	for _, p := range ph.passes {
		if p.ops == 0 {
			continue
		}
		tput = append(tput, float64(p.ops)/p.busy.Seconds())
		cpu = append(cpu, ms(p.cpu)/float64(p.ops))
		rss = append(rss, p.peakMB)
	}
	return map[string]metric{
		"setup_s":         {setup.Seconds(), "s"},
		"ops_per_s":       {median(tput), "1/s"},
		"latency_p50_ms":  {ms(ls.p50), "ms"},
		"latency_tail_ms": {ms(ls.tail), "ms"},
		"cpu_ms_per_op":   {median(cpu), "ms"},
		"peak_rss_mb":     {median(rss), "MB"},
	}
}

// runtimeLayer derives the Go runtime per-layer metrics of a phase. heapEnd
// is the live heap after the GC that follows the timed phase.
func runtimeLayer(ph *phase, heapEnd uint64) map[string]metric {
	ops := float64(len(ph.samples))
	return map[string]metric{
		"runtime.alloc_mb_per_op":        {float64(ph.alloc) / (1 << 20) / ops, "MB"},
		"runtime.gc_per_kop":             {float64(ph.gcs) * 1000 / ops, "count"},
		"runtime.heap_growth_mb_per_kop": {(float64(heapEnd) - float64(ph.heapLive)) / (1 << 20) * 1000 / ops, "MB"},
	}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// runtimeCounters reads cumulative heap bytes allocated and GC cycles
// without stopping the world.
func runtimeCounters() (alloc, gcs uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident high-water mark at the
// current resident set, so getrusage reports the peak of what follows. It
// is best effort: without /proc the mark stays the process lifetime's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perSecond is x per second of d, or 0 when nothing was timed.
func perSecond(x float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return x / d.Seconds()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
