package obs

import (
	"io"
	"math"
	"sync/atomic"
	"time"
)

// ShedReason enumerates why a serving front end refused a request before
// running it. The serving layer records sheds here (rather than in ad-hoc
// handler counters) so load tests, dashboards and the drain logic all read
// one vocabulary.
type ShedReason uint8

const (
	// ShedQueueFull: the admission queue was already at its configured
	// bound when the request arrived.
	ShedQueueFull ShedReason = iota
	// ShedQueueTimeout: the request waited in the admission queue past its
	// queue-wait budget without an execution slot freeing up.
	ShedQueueTimeout
	// ShedPressure: the pressure monitor judged the backend overloaded
	// (windowed p99 latency over threshold) and the server is proactively
	// rejecting work it could technically still enqueue.
	ShedPressure
	// ShedDraining: the server is shutting down and no longer admits work.
	ShedDraining
	// ShedTenantQuota: the request's tenant already had its full provisioned
	// concurrency in flight; the global gate never saw the request.
	ShedTenantQuota

	NumShedReasons
)

var shedNames = [NumShedReasons]string{
	"queue_full", "queue_timeout", "pressure", "draining", "tenant_quota",
}

func (r ShedReason) String() string {
	if r < NumShedReasons {
		return shedNames[r]
	}
	return "shed(?)"
}

// ServerMetrics aggregates a query-serving front end's counters: queue
// depth and wait times, admissions, sheds by reason, handler panics, HTTP
// response classes and the drain state. Like Metrics it is lock-free to
// record and snapshot-on-demand to read; the zero value is ready to use.
type ServerMetrics struct {
	queueDepth  atomic.Int64
	queuedTotal atomic.Int64
	admitted    atomic.Int64
	inFlight    atomic.Int64
	shed        [NumShedReasons]atomic.Int64
	panics      atomic.Int64
	clientGone  atomic.Int64
	draining    atomic.Int64

	cursorsOpen    atomic.Int64
	cursorsOpened  atomic.Int64
	cursorsExpired atomic.Int64

	histRegress atomic.Int64

	batches      atomic.Int64
	batchMembers atomic.Int64
	batchRuns    atomic.Int64
	batchSize    [batchSizeBuckets + 1]atomic.Int64

	queueWait [latencyBuckets + 1]atomic.Int64
	status    [6]atomic.Int64 // responses by status class (index 2..5 used)
}

// batchSizeBuckets covers coalesced-batch sizes 1, 2, 4, ... 2^9 (the +1
// overflow bucket catches anything larger).
const batchSizeBuckets = 10

// RecordBatch notes one coalesced batch executing: how many admitted
// requests it carried and how many distinct engine runs (budget classes) it
// took to answer them. members - runs is the work coalescing saved; the
// size histogram shows whether the batching window is actually gathering
// traffic or just adding latency to singletons.
func (m *ServerMetrics) RecordBatch(members, runs int) {
	m.batches.Add(1)
	m.batchMembers.Add(int64(members))
	m.batchRuns.Add(int64(runs))
	m.batchSize[bucketPow2(int64(members), batchSizeBuckets)].Add(1)
}

// RecordEnqueue notes a request joining the admission queue and returns the
// new depth, so the caller can bound it.
func (m *ServerMetrics) RecordEnqueue() int64 {
	m.queuedTotal.Add(1)
	return m.queueDepth.Add(1)
}

// RecordDequeue notes a request leaving the admission queue (admitted, shed
// on timeout, or abandoned by the client), with the time it waited.
func (m *ServerMetrics) RecordDequeue(wait time.Duration) {
	m.queueDepth.Add(-1)
	m.queueWait[bucketPow2(int64(wait)/int64(time.Microsecond), latencyBuckets)].Add(1)
}

// RecordAdmitted notes a request acquiring an execution slot. Balanced by
// exactly one RecordReleased.
func (m *ServerMetrics) RecordAdmitted() {
	m.admitted.Add(1)
	m.inFlight.Add(1)
}

// RecordReleased notes an admitted request giving its execution slot back.
func (m *ServerMetrics) RecordReleased() { m.inFlight.Add(-1) }

// RecordShed notes a request refused before execution, by reason.
func (m *ServerMetrics) RecordShed(r ShedReason) {
	if r < NumShedReasons {
		m.shed[r].Add(1)
	}
}

// RecordPanic notes a handler panic contained by the isolation guard.
func (m *ServerMetrics) RecordPanic() { m.panics.Add(1) }

// RecordClientGone notes a request whose client disconnected before a
// response could be delivered.
func (m *ServerMetrics) RecordClientGone() { m.clientGone.Add(1) }

// RecordStatus notes the HTTP status code of a completed response.
func (m *ServerMetrics) RecordStatus(code int) {
	if c := code / 100; c >= 2 && c <= 5 {
		m.status[c].Add(1)
	}
}

// SetDraining flips the drain gauge.
func (m *ServerMetrics) SetDraining(on bool) {
	if on {
		m.draining.Store(1)
	} else {
		m.draining.Store(0)
	}
}

// RecordCursorOpened notes a paginated query parking a suspended stream
// behind a resume cursor. Balanced by exactly one RecordCursorClosed.
func (m *ServerMetrics) RecordCursorOpened() {
	m.cursorsOpened.Add(1)
	m.cursorsOpen.Add(1)
}

// RecordCursorClosed notes a parked cursor going away; expired
// distinguishes a TTL sweep from a client resuming or a drain closing it.
func (m *ServerMetrics) RecordCursorClosed(expired bool) {
	m.cursorsOpen.Add(-1)
	if expired {
		m.cursorsExpired.Add(1)
	}
}

// RecordHistRegression notes n observations of histogram mass clamped by a
// non-monotone snapshot subtraction (see Histogram.SubCount). Persistent
// growth here means a metrics source is being dropped between windows.
func (m *ServerMetrics) RecordHistRegression(n int64) {
	if n > 0 {
		m.histRegress.Add(n)
	}
}

// QueueDepth returns the current number of requests waiting for admission.
func (m *ServerMetrics) QueueDepth() int64 { return m.queueDepth.Load() }

// InFlight returns the current number of admitted, still-running requests.
func (m *ServerMetrics) InFlight() int64 { return m.inFlight.Load() }

// ServerSnapshot is a point-in-time copy of ServerMetrics,
// JSON-serializable (for expvar) and renderable as Prometheus text.
type ServerSnapshot struct {
	QueueDepth  int64 `json:"queue_depth"`
	QueuedTotal int64 `json:"queued_total"`
	Admitted    int64 `json:"admitted"`
	InFlight    int64 `json:"in_flight"`

	Shed map[string]int64 `json:"shed,omitempty"` // by ShedReason name

	Panics     int64 `json:"panics"`
	ClientGone int64 `json:"client_gone"`
	Draining   bool  `json:"draining"`

	CursorsOpen    int64 `json:"cursors_open"`
	CursorsOpened  int64 `json:"cursors_opened"`
	CursorsExpired int64 `json:"cursors_expired"`

	// HistogramRegressions counts observations clamped by non-monotone
	// histogram-window subtractions in the pressure monitor (should stay 0;
	// see Histogram.SubCount).
	HistogramRegressions int64 `json:"histogram_regressions"`

	Responses map[string]int64 `json:"responses,omitempty"` // by status class ("2xx".."5xx")

	// Coalescing: batches executed, admitted requests they carried, and the
	// distinct engine runs it took to answer them (members - runs is the work
	// coalescing saved).
	BatchesTotal      int64     `json:"batches_total"`
	BatchMembersTotal int64     `json:"batch_members_total"`
	BatchRunsTotal    int64     `json:"batch_runs_total"`
	BatchSize         Histogram `json:"batch_size"`

	QueueWaitSeconds Histogram `json:"queue_wait_seconds"`
}

// ShedTotal sums sheds across every reason.
func (s ServerSnapshot) ShedTotal() int64 {
	var n int64
	for _, v := range s.Shed {
		n += v
	}
	return n
}

// Snapshot copies the current counter values.
func (m *ServerMetrics) Snapshot() ServerSnapshot {
	s := ServerSnapshot{
		QueueDepth:  m.queueDepth.Load(),
		QueuedTotal: m.queuedTotal.Load(),
		Admitted:    m.admitted.Load(),
		InFlight:    m.inFlight.Load(),
		Panics:      m.panics.Load(),
		ClientGone:  m.clientGone.Load(),
		Draining:    m.draining.Load() != 0,

		CursorsOpen:          m.cursorsOpen.Load(),
		CursorsOpened:        m.cursorsOpened.Load(),
		CursorsExpired:       m.cursorsExpired.Load(),
		HistogramRegressions: m.histRegress.Load(),
	}
	for r := ShedReason(0); r < NumShedReasons; r++ {
		if n := m.shed[r].Load(); n > 0 {
			if s.Shed == nil {
				s.Shed = map[string]int64{}
			}
			s.Shed[r.String()] = n
		}
	}
	classes := [...]string{2: "2xx", 3: "3xx", 4: "4xx", 5: "5xx"}
	for c := 2; c <= 5; c++ {
		if n := m.status[c].Load(); n > 0 {
			if s.Responses == nil {
				s.Responses = map[string]int64{}
			}
			s.Responses[classes[c]] = n
		}
	}
	s.BatchesTotal = m.batches.Load()
	s.BatchMembersTotal = m.batchMembers.Load()
	s.BatchRunsTotal = m.batchRuns.Load()
	s.BatchSize = loadHistogram(m.batchSize[:], 1, 1)
	s.QueueWaitSeconds = loadHistogram(m.queueWait[:], 1, 1e6)
	return s
}

// WriteTo renders the snapshot in the Prometheus text exposition format
// under the symbolserve_ prefix.
func (s ServerSnapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	p := cw.printf
	gauge := func(name, help string, v int64) {
		p("# HELP symbolserve_%s %s\n# TYPE symbolserve_%s gauge\nsymbolserve_%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		p("# HELP symbolserve_%s %s\n# TYPE symbolserve_%s counter\nsymbolserve_%s %d\n", name, help, name, name, v)
	}
	gauge("queue_depth", "Requests waiting for admission.", s.QueueDepth)
	counter("queued_total", "Requests that entered the admission queue.", s.QueuedTotal)
	counter("admitted_total", "Requests granted an execution slot.", s.Admitted)
	gauge("in_flight", "Admitted requests currently executing.", s.InFlight)
	p("# HELP symbolserve_shed_total Requests refused before execution, by reason.\n# TYPE symbolserve_shed_total counter\n")
	for r := ShedReason(0); r < NumShedReasons; r++ {
		p("symbolserve_shed_total{reason=%q} %d\n", r.String(), s.Shed[r.String()])
	}
	counter("panics_total", "Handler panics contained by the isolation guard.", s.Panics)
	counter("client_gone_total", "Requests whose client disconnected first.", s.ClientGone)
	drain := int64(0)
	if s.Draining {
		drain = 1
	}
	gauge("draining", "1 while the server is draining.", drain)
	gauge("cursors_open", "Suspended solution streams parked behind resume cursors.", s.CursorsOpen)
	counter("cursors_opened_total", "Resume cursors ever issued.", s.CursorsOpened)
	counter("cursors_expired_total", "Resume cursors reclaimed by TTL expiry.", s.CursorsExpired)
	counter("pressure_histogram_regressions_total", "Observations clamped by non-monotone pressure-window subtraction.", s.HistogramRegressions)
	p("# HELP symbolserve_responses_total Responses sent, by status class.\n# TYPE symbolserve_responses_total counter\n")
	for _, c := range []string{"2xx", "3xx", "4xx", "5xx"} {
		p("symbolserve_responses_total{class=%q} %d\n", c, s.Responses[c])
	}
	counter("batches_total", "Coalesced batches executed.", s.BatchesTotal)
	counter("batch_members_total", "Admitted requests carried by coalesced batches.", s.BatchMembersTotal)
	counter("batch_runs_total", "Distinct engine runs executed on behalf of batches.", s.BatchRunsTotal)
	cw.histogram("symbolserve_batch_size", "Members per coalesced batch.", s.BatchSize)
	cw.histogram("symbolserve_queue_wait_seconds", "Admission-queue wait of dequeued requests.", s.QueueWaitSeconds)
	return cw.n, cw.err
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations in h:
// the upper bound of the bucket holding the rank-q observation, +Inf if it
// falls past the last bound, 0 if the histogram is empty. The estimate is
// conservative (an upper bound on the true quantile), which is the safe
// direction for load-shedding decisions.
func (h Histogram) Quantile(q float64) float64 {
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	return math.Inf(1)
}

// Sub sets h to the bucket-wise difference h - o, for turning two
// cumulative snapshots of the same histogram into the histogram of the
// interval between them. Buckets where o exceeds h clamp to zero instead
// of going negative; SubCount additionally reports how much mass was
// clamped, which callers should surface — a regression means the two
// snapshots were not really cumulative views of the same population (e.g.
// a contributing source vanished between them) and the window is suspect.
// Mismatched layouts leave h unchanged.
func (h Histogram) Sub(o Histogram) Histogram {
	out, _ := h.SubCount(o)
	return out
}

// SubCount is Sub plus the total count clamped to zero: the sum over all
// buckets of max(0, o[i]-h[i]). A non-zero second result flags a
// non-monotone snapshot pair.
func (h Histogram) SubCount(o Histogram) (Histogram, int64) {
	if len(h.Counts) != len(o.Counts) {
		return h, 0
	}
	out := Histogram{Bounds: h.Bounds, Counts: make([]int64, len(h.Counts))}
	var clamped int64
	for i := range h.Counts {
		if d := h.Counts[i] - o.Counts[i]; d > 0 {
			out.Counts[i] = d
		} else {
			clamped -= d
		}
	}
	return out, clamped
}

// Total sums the histogram's counts.
func (h Histogram) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}
