package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"symbol/internal/fault"
	"symbol/internal/obs"
)

const appKB = `
app([],L,L).
app([H|T],L,[H|R]) :- app(T,L,R).
main :- app([1,2],[3],X), write(X), nl.
`

// loopKB runs until a budget, deadline or cancellation stops it.
const loopKB = `
loop :- loop.
main :- loop.
`

func newTestServer(t *testing.T, cfg Config, kbs ...KB) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg, kbs...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

func decode(t *testing.T, r *http.Response) Response {
	t.Helper()
	defer r.Body.Close()
	var resp Response
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp
}

// TestFaultStatusExhaustive is the satellite exhaustiveness check: every
// fault kind must have a deliberate HTTP status and a stable name, so a new
// kind cannot silently become a 500 with a fault(N) placeholder string.
func TestFaultStatusExhaustive(t *testing.T) {
	seen := map[string]fault.Kind{}
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		status := StatusOf(k)
		if status < 200 || status > 599 {
			t.Errorf("fault kind %d (%s) maps to invalid HTTP status %d", k, k, status)
		}
		if k != fault.None && status == http.StatusInternalServerError && k != fault.InvalidMemory {
			t.Errorf("fault kind %s maps to 500: give it a deliberate status", k)
		}
		name := k.String()
		if strings.HasPrefix(name, "fault(") || name == "" {
			t.Errorf("fault kind %d has no stable string: %q", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("fault kinds %d and %d share the string %q", prev, k, name)
		}
		seen[name] = k
	}
	// Past-the-enumeration kinds must not index out of bounds.
	if got := StatusOf(fault.NumKinds + 3); got != http.StatusInternalServerError {
		t.Errorf("out-of-range kind mapped to %d, want 500", got)
	}
}

func TestRunAndQueryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{}, KB{Name: "app", Source: appKB})

	r, err := http.Get(ts.URL + "/run/app")
	if err != nil {
		t.Fatal(err)
	}
	resp := decode(t, r)
	if r.StatusCode != 200 || !resp.OK || resp.Output != "[1,2,3]\n" {
		t.Fatalf("/run/app: status=%d resp=%+v", r.StatusCode, resp)
	}
	if resp.Steps == 0 || resp.WallNS == 0 {
		t.Errorf("/run/app: missing stats in %+v", resp)
	}

	r, err = http.Post(ts.URL+"/query/app", "text/plain", strings.NewReader("app(X, [3], [1,2,3])"))
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 200 || !resp.OK || resp.Output != "X = [1,2]\n" {
		t.Fatalf("/query/app: status=%d resp=%+v", r.StatusCode, resp)
	}

	// A failing goal is a clean "no", not an error.
	r, err = http.Post(ts.URL+"/query/app", "text/plain", strings.NewReader("app([9], [9], [1])"))
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 200 || resp.OK {
		t.Fatalf("failing goal: status=%d resp=%+v", r.StatusCode, resp)
	}

	// A malformed goal is the client's fault.
	r, err = http.Post(ts.URL+"/query/app", "text/plain", strings.NewReader("app(X,"))
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 400 {
		t.Fatalf("bad goal: status=%d resp=%+v", r.StatusCode, resp)
	}

	// Unknown KB.
	r, err = http.Get(ts.URL + "/run/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != 404 {
		t.Fatalf("/run/nosuch: status=%d", r.StatusCode)
	}
}

func TestQueryOnlyKB(t *testing.T) {
	// A KB without main/0 is query-only: /run explains, /query works.
	kb := "color(red).\ncolor(blue).\n"
	_, ts := newTestServer(t, Config{}, KB{Name: "colors", Source: kb})

	r, err := http.Get(ts.URL + "/run/colors")
	if err != nil {
		t.Fatal(err)
	}
	resp := decode(t, r)
	if r.StatusCode != 400 || !strings.Contains(resp.Error, "not runnable") {
		t.Fatalf("/run on query-only kb: status=%d resp=%+v", r.StatusCode, resp)
	}

	r, err = http.Post(ts.URL+"/query/colors", "text/plain", strings.NewReader("color(X)"))
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 200 || !resp.OK || resp.Output != "X = red\n" {
		t.Fatalf("/query on query-only kb: status=%d resp=%+v", r.StatusCode, resp)
	}
}

func TestTenantBudgets(t *testing.T) {
	cfg := Config{
		DefaultTenant: Tenant{MaxSteps: 1 << 40},
		Tenants: map[string]Tenant{
			"small": {MaxSteps: 1000},
		},
	}
	_, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})
	client := ts.Client()

	// The small tenant's step ceiling terminates the loop as a typed 422.
	req, _ := http.NewRequest("GET", ts.URL+"/run/loop", nil)
	req.Header.Set(HeaderTenant, "small")
	r, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := decode(t, r)
	if r.StatusCode != 422 || resp.Fault != fault.StepLimit.String() {
		t.Fatalf("small tenant: status=%d resp=%+v", r.StatusCode, resp)
	}
	if resp.Tenant != "small" {
		t.Errorf("response tenant = %q", resp.Tenant)
	}

	// A header can tighten the budget under the tenant ceiling...
	req, _ = http.NewRequest("GET", ts.URL+"/run/loop", nil)
	req.Header.Set(HeaderMaxSteps, "2000")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 422 || resp.Fault != fault.StepLimit.String() {
		t.Fatalf("header budget: status=%d resp=%+v", r.StatusCode, resp)
	}

	// ...but never raise it past the ceiling.
	req, _ = http.NewRequest("GET", ts.URL+"/run/loop", nil)
	req.Header.Set(HeaderTenant, "small")
	req.Header.Set(HeaderMaxSteps, "999999999999")
	start := time.Now()
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 422 || time.Since(start) > 5*time.Second {
		t.Fatalf("clamped budget: status=%d after %v, resp=%+v", r.StatusCode, time.Since(start), resp)
	}

	// Unknown tenants are refused, not downgraded.
	req, _ = http.NewRequest("GET", ts.URL+"/run/loop", nil)
	req.Header.Set(HeaderTenant, "nosuch")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, r)
	if r.StatusCode != 403 {
		t.Fatalf("unknown tenant: status=%d", r.StatusCode)
	}

	// Malformed budget headers are 400s.
	req, _ = http.NewRequest("GET", ts.URL+"/run/loop", nil)
	req.Header.Set(HeaderMaxSteps, "lots")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, r)
	if r.StatusCode != 400 {
		t.Fatalf("bad header: status=%d", r.StatusCode)
	}
}

func TestRequestTimeoutMapsToTimeoutStatus(t *testing.T) {
	cfg := Config{RequestTimeout: 50 * time.Millisecond}
	_, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB})
	r, err := http.Get(ts.URL + "/run/loop")
	if err != nil {
		t.Fatal(err)
	}
	resp := decode(t, r)
	// The executor's deadline poll and the context timer race; both causes
	// are the same budget and must map to 504.
	if r.StatusCode != 504 {
		t.Fatalf("timeout: status=%d resp=%+v", r.StatusCode, resp)
	}
	if resp.Fault != fault.Deadline.String() && resp.Fault != fault.Canceled.String() {
		t.Errorf("timeout fault = %q", resp.Fault)
	}
}

func TestEngineCacheLRUAndNegativeCaching(t *testing.T) {
	c := newEngineCache(2, time.Minute)
	e1, err := c.get("kb", appKB, "app(X,[3],[1,2,3])")
	if err != nil || e1 == nil {
		t.Fatalf("get: %v", err)
	}
	// Same goal hits the same engine.
	e2, err := c.get("kb", appKB, "app(X,[3],[1,2,3])")
	if err != nil || e2 != e1 {
		t.Fatalf("cache miss on identical goal")
	}
	// A bad goal caches its error.
	if _, err := c.get("kb", appKB, "app(X,"); err == nil {
		t.Fatal("bad goal compiled")
	}
	if _, err := c.get("kb", appKB, "app(X,"); err == nil {
		t.Fatal("bad goal compiled on second try")
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	// A third distinct goal evicts the LRU entry.
	if _, err := c.get("kb", appKB, "app([],X,[7])"); err != nil {
		t.Fatal(err)
	}
	if c.len() != 2 {
		t.Fatalf("cache len after eviction = %d, want 2", c.len())
	}
	// Remaining entries: the newest goal (compiled) and the bad goal
	// (error-only) — the first compiled engine was the LRU victim.
	if got := len(c.engines()); got != 1 {
		t.Fatalf("engines() = %d, want 1", got)
	}
}

func TestEngineCacheConcurrentSameGoal(t *testing.T) {
	c := newEngineCache(8, time.Minute)
	var wg sync.WaitGroup
	engines := make([]any, 16)
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.get("kb", appKB, "app(X,[3],[1,2,3])")
			if err != nil {
				t.Errorf("get: %v", err)
			}
			engines[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(engines); i++ {
		if engines[i] != engines[0] {
			t.Fatalf("concurrent gets produced distinct engines")
		}
	}
}

func TestAdmissionGate(t *testing.T) {
	var met obs.ServerMetrics
	g := newGate(1, 1, &met)

	rel1, err := g.acquire(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Second request queues; third finds the queue full.
	type res struct {
		rel func()
		err error
	}
	second := make(chan res, 1)
	go func() {
		rel, err := g.acquire(context.Background(), time.Second)
		second <- res{rel, err}
	}()
	waitFor(t, time.Second, func() bool { return met.QueueDepth() == 1 })
	if _, err := g.acquire(context.Background(), time.Second); err != errQueueFull {
		t.Fatalf("third acquire: %v, want errQueueFull", err)
	}
	rel1()
	r2 := <-second
	if r2.err != nil {
		t.Fatalf("queued acquire: %v", r2.err)
	}
	r2.rel()

	// Queue-wait timeout.
	rel1, err = g.acquire(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.acquire(context.Background(), 20*time.Millisecond); err != errQueueTimeout {
		t.Fatalf("timed-out acquire: %v, want errQueueTimeout", err)
	}
	// Client abandonment.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.acquire(ctx, time.Second); err != context.Canceled {
		t.Fatalf("abandoned acquire: %v, want context.Canceled", err)
	}
	rel1()

	s := met.Snapshot()
	if s.Shed != nil {
		t.Errorf("gate must not record sheds itself: %v", s.Shed)
	}
	if s.QueueDepth != 0 {
		t.Errorf("queue depth = %d after quiescence", s.QueueDepth)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{}, KB{Name: "app", Source: appKB})
	// Reach into the mux with a handler that panics, through the guard.
	h := s.protect(func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", ts.URL+"/run/app", nil))
	if rec.Code != 500 {
		t.Fatalf("panicking handler: status=%d", rec.Code)
	}
	if got := s.Metrics().Panics; got != 1 {
		t.Fatalf("panics counter = %d", got)
	}
	// The server still answers.
	r, err := http.Get(ts.URL + "/run/app")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("server unhealthy after panic: %d", r.StatusCode)
	}
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{}, KB{Name: "app", Source: appKB})
	if r, _ := http.Get(ts.URL + "/run/app"); r != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		"symbol_queries_started_total 1",
		"symbolserve_admitted_total 1",
		`symbolserve_responses_total{class="2xx"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, path := range []string{"/healthz", "/readyz", "/kbs", "/debug/vars", "/metrics?kb=app"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != 200 {
			t.Errorf("%s: status=%d", path, r.StatusCode)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", d)
}
