package serve

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"symbol/internal/fault"
)

// TestOverloadSheds is the acceptance-criteria overload half: with one
// execution slot and a one-deep queue, a burst of expensive queries must
// split into bounded admitted work (typed 422 step-limit answers) and fast
// 429 sheds carrying Retry-After — and the latency of admitted requests
// must stay bounded by their budgets instead of growing with the burst.
func TestOverloadSheds(t *testing.T) {
	cfg := Config{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 30 * time.Millisecond,
		// ~20M steps of busy looping per admitted request: tens of
		// milliseconds on any hardware, long enough to force queueing.
		DefaultTenant:  Tenant{MaxSteps: 20_000_000},
		RequestTimeout: 30 * time.Second,
	}
	s, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})

	const burst = 8
	type outcome struct {
		status     int
		faultName  string
		retryAfter string
		shedReason string
		latency    time.Duration
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			r, err := http.Get(ts.URL + "/run/loop")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resp := decode(t, r)
			outcomes[i] = outcome{
				status:     r.StatusCode,
				faultName:  resp.Fault,
				retryAfter: r.Header.Get("Retry-After"),
				shedReason: r.Header.Get(ShedReasonHeader),
				latency:    time.Since(start),
			}
		}(i)
	}
	wg.Wait()

	var admitted, shed int
	var admittedLat []time.Duration
	for i, o := range outcomes {
		switch o.status {
		case 422:
			admitted++
			admittedLat = append(admittedLat, o.latency)
			if o.faultName != fault.StepLimit.String() {
				t.Errorf("request %d: admitted fault = %q", i, o.faultName)
			}
		case 429, 503:
			shed++
			if o.retryAfter != "1" {
				t.Errorf("request %d: shed with Retry-After %q, want 1", i, o.retryAfter)
			}
			if o.shedReason == "" {
				t.Errorf("request %d: shed without %s header", i, ShedReasonHeader)
			}
			if o.latency > 5*time.Second {
				t.Errorf("request %d: shed took %v — sheds must be fast", i, o.latency)
			}
		default:
			t.Errorf("request %d: unexpected status %d (fault %q)", i, o.status, o.faultName)
		}
	}
	if admitted == 0 {
		t.Error("no request was admitted")
	}
	if shed == 0 {
		t.Error("no request was shed under overload")
	}
	// Admitted p99 (here: worst admitted latency) is bounded by the work
	// budget plus queueing behind at most one other admitted request — far
	// under what serving the whole burst serially would take.
	sort.Slice(admittedLat, func(i, j int) bool { return admittedLat[i] < admittedLat[j] })
	if worst := admittedLat[len(admittedLat)-1]; worst > 15*time.Second {
		t.Errorf("admitted worst-case latency %v not bounded", worst)
	}

	m := s.Metrics()
	if m.ShedTotal() != int64(shed) {
		t.Errorf("shed metrics = %d, observed %d", m.ShedTotal(), shed)
	}
	if m.Admitted != int64(admitted) {
		t.Errorf("admitted metrics = %d, observed %d", m.Admitted, admitted)
	}
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("gauges not drained: %+v", m)
	}
}

// TestGracefulDrain is the acceptance-criteria drain half: with long
// queries in flight, Drain must stop admissions immediately, hard-cancel
// the stragglers at the drain deadline as typed fault.Canceled, and every
// accepted request must still receive a response.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{
		MaxInFlight:    2,
		RequestTimeout: 30 * time.Second, // far beyond the drain deadline
	}
	s, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})

	// Two infinite queries occupy both slots.
	type outcome struct {
		status int
		resp   Response
		retry  string
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := http.Get(ts.URL + "/run/loop")
			if err != nil {
				t.Errorf("in-flight request failed at transport level: %v", err)
				results <- outcome{}
				return
			}
			results <- outcome{status: r.StatusCode, resp: decode(t, r), retry: r.Header.Get("Retry-After")}
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().InFlight == 2 })

	// Drain with a short deadline: the loops cannot finish, so they must be
	// hard-cancelled, answered, and the server must settle quickly.
	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("drain took %v", took)
	}

	for i := 0; i < 2; i++ {
		o := <-results
		if o.status != 503 {
			t.Errorf("drained in-flight request: status=%d resp=%+v", o.status, o.resp)
		}
		if o.resp.Fault != fault.Canceled.String() {
			t.Errorf("drained request fault = %q, want %q", o.resp.Fault, fault.Canceled)
		}
		if o.retry == "" {
			t.Errorf("drained request missing Retry-After")
		}
	}

	// After drain: no work in flight, engines idle, new requests shed.
	m := s.Metrics()
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("gauges after drain: %+v", m)
	}
	if !m.Draining {
		t.Error("drain gauge not set")
	}
	if em := s.EngineMetrics(); em.InFlight != 0 {
		t.Errorf("engine in-flight after drain = %d", em.InFlight)
	}
	r, err := http.Get(ts.URL + "/run/loop")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != 503 {
		t.Errorf("post-drain request: status=%d", r.StatusCode)
	}
	if got := r.Header.Get(ShedReasonHeader); got != "draining" {
		t.Errorf("post-drain shed reason = %q", got)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("post-drain shed missing Retry-After")
	}
	io.Copy(io.Discard, r.Body)

	// Health flips, queries shed, but metrics stay up for scrapes.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != 503 {
		t.Errorf("healthz while draining: %d", hr.StatusCode)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if mr.StatusCode != 200 || !strings.Contains(string(body), "symbolserve_draining 1") {
		t.Errorf("metrics while draining: status=%d", mr.StatusCode)
	}
}

// TestDrainCompletesInFlight: queries that can finish inside the drain
// deadline complete normally — drain is graceful, not a kill switch.
func TestDrainCompletesInFlight(t *testing.T) {
	cfg := Config{
		MaxInFlight: 1,
		// The loop query burns its step budget in tens of milliseconds.
		DefaultTenant: Tenant{MaxSteps: 20_000_000},
	}
	s, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})

	done := make(chan outcome1, 1)
	go func() {
		r, err := http.Get(ts.URL + "/run/loop")
		if err != nil {
			t.Errorf("request: %v", err)
			done <- outcome1{}
			return
		}
		done <- outcome1{status: r.StatusCode, resp: decode(t, r)}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().InFlight == 1 })

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	o := <-done
	// The run completed under its own budget: a typed 422, not a 503.
	if o.status != 422 || o.resp.Fault != fault.StepLimit.String() {
		t.Errorf("in-flight run under generous drain: status=%d resp=%+v", o.status, o.resp)
	}
}

type outcome1 struct {
	status int
	resp   Response
}

// TestPressureShedding: a window whose p99 crosses the threshold flips the
// server into shedding; a recovered window lets traffic back in.
func TestPressureShedding(t *testing.T) {
	cfg := Config{
		ShedP99: time.Nanosecond, // any measured p99 trips it
		// Long enough for a window to accumulate pressureMinSamples even
		// when the race detector slows each request to several ms.
		PressureInterval: 50 * time.Millisecond,
		DefaultTenant:    Tenant{MaxSteps: 100_000},
	}
	s, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})

	// Prime a window with enough completed runs to trust its p99.
	for i := 0; i < 2*pressureMinSamples; i++ {
		r, err := http.Get(ts.URL + "/run/loop")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	time.Sleep(2 * cfg.PressureInterval)

	// The monitor now sees a window with p99 > 1ns: shed.
	waitFor(t, 5*time.Second, func() bool {
		r, err := http.Get(ts.URL + "/run/loop")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		io.Copy(io.Discard, r.Body)
		return r.StatusCode == 503 && r.Header.Get(ShedReasonHeader) == "pressure"
	})
	if got := s.Metrics().Shed["pressure"]; got == 0 {
		t.Error("no pressure sheds recorded")
	}
	// readyz mirrors the verdict.
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != 503 {
		t.Errorf("readyz under pressure: %d", r.StatusCode)
	}

	// Quiet windows (no samples) recover: the next refresh clears the
	// verdict because an idle backend is not overloaded.
	waitFor(t, 5*time.Second, func() bool {
		r, err := http.Get(ts.URL + "/run/loop")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		io.Copy(io.Discard, r.Body)
		return r.StatusCode == 422
	})
}

// TestClientDisconnectMidRun: a client abandoning an in-flight query frees
// its slot promptly and is recorded, not crashed on.
func TestClientDisconnectMidRun(t *testing.T) {
	cfg := Config{MaxInFlight: 1, RequestTimeout: 30 * time.Second}
	s, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/run/loop", nil)
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().InFlight == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	// The slot frees up without waiting for the full request timeout.
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().InFlight == 0 })
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().ClientGone == 1 })
}
