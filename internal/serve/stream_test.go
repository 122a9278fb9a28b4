package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"symbol"
)

// getPage fetches one page of a paginated query and decodes it.
func getPage(t *testing.T, base, kb string, params url.Values) (int, Response) {
	t.Helper()
	r, err := http.Get(base + "/query/" + kb + "?" + params.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, decode(t, r)
}

// TestQueryPagination walks a 4-solution goal in pages of 2: first page
// parks the stream behind a cursor, the resume drains it, and the spent
// cursor is single-use.
func TestQueryPagination(t *testing.T) {
	s, ts := newTestServer(t, Config{}, KB{Name: "app", Source: appKB})

	status, p1 := getPage(t, ts.URL, "app", url.Values{
		"q": {"app(X, Y, [1,2,3])"}, "limit": {"2"},
	})
	if status != 200 || !p1.OK {
		t.Fatalf("page 1: status=%d resp=%+v", status, p1)
	}
	if len(p1.Solutions) != 2 || !p1.More || p1.Cursor == "" {
		t.Fatalf("page 1: %+v", p1)
	}
	if p1.Solutions[0].Output != "X = []\nY = [1,2,3]\n" {
		t.Fatalf("page 1 first solution %q", p1.Solutions[0].Output)
	}
	if got := s.Metrics().CursorsOpen; got != 1 {
		t.Fatalf("cursors open = %d, want 1", got)
	}

	status, p2 := getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}})
	if status != 200 || len(p2.Solutions) != 2 {
		t.Fatalf("page 2: status=%d resp=%+v", status, p2)
	}
	if p2.Solutions[0].Output != "X = [1,2]\nY = [3]\n" {
		t.Fatalf("page 2 resumed at %q, want third solution", p2.Solutions[0].Output)
	}
	// Steps stay cumulative across the cursor hop.
	if p2.Solutions[0].Steps <= p1.Solutions[1].Steps {
		t.Fatalf("steps not cumulative across pages: %d then %d",
			p1.Solutions[1].Steps, p2.Solutions[0].Steps)
	}

	// 4 solutions delivered in 2+2: page 2 parked again (More unknown
	// until the next backtrack), so drain the tail.
	cursor := p2.Cursor
	for p2.More {
		if cursor == "" {
			t.Fatalf("More without a cursor outside drain: %+v", p2)
		}
		status, p2 = getPage(t, ts.URL, "app", url.Values{"cursor": {cursor}})
		if status != 200 {
			t.Fatalf("tail page: status=%d resp=%+v", status, p2)
		}
		if len(p2.Solutions) != 0 {
			t.Fatalf("extra solutions past the fourth: %+v", p2.Solutions)
		}
		cursor = p2.Cursor
	}
	if got := s.Metrics().CursorsOpen; got != 0 {
		t.Fatalf("cursors open after exhaustion = %d, want 0", got)
	}

	// The spent first-page cursor was claimed by page 2: stale now.
	status, stale := getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}})
	if status != 404 {
		t.Fatalf("stale cursor: status=%d resp=%+v", status, stale)
	}
}

// TestQueryPaginationValidation: limit must be a positive integer, on both
// the first page and a resume.
func TestQueryPaginationValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, KB{Name: "app", Source: appKB})
	for _, bad := range []string{"0", "-2", "x"} {
		status, resp := getPage(t, ts.URL, "app", url.Values{
			"q": {"app(X, Y, [1,2])"}, "limit": {bad},
		})
		if status != 400 {
			t.Fatalf("limit=%q: status=%d resp=%+v", bad, status, resp)
		}
	}

	status, p1 := getPage(t, ts.URL, "app", url.Values{
		"q": {"app(X, Y, [1,2])"}, "limit": {"1"},
	})
	if status != 200 || p1.Cursor == "" {
		t.Fatalf("page 1: status=%d resp=%+v", status, p1)
	}
	// A bad limit on resume is rejected without burning the cursor.
	status, _ = getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}, "limit": {"nope"}})
	if status != 400 {
		t.Fatalf("bad resume limit: status=%d", status)
	}
	status, p2 := getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}, "limit": {"5"}})
	if status != 200 || len(p2.Solutions) != 2 || p2.More {
		t.Fatalf("resume after rejected limit: status=%d resp=%+v", status, p2)
	}
}

// TestCursorWrongKB: resuming against the wrong kb is a 404 that leaves
// the cursor usable on the right one.
func TestCursorWrongKB(t *testing.T) {
	_, ts := newTestServer(t, Config{},
		KB{Name: "app", Source: appKB},
		KB{Name: "other", Source: "q(1).\n"})
	status, p1 := getPage(t, ts.URL, "app", url.Values{
		"q": {"app(X, Y, [1,2])"}, "limit": {"1"},
	})
	if status != 200 || p1.Cursor == "" {
		t.Fatalf("page 1: status=%d resp=%+v", status, p1)
	}
	status, _ = getPage(t, ts.URL, "other", url.Values{"cursor": {p1.Cursor}})
	if status != 404 {
		t.Fatalf("wrong-kb resume: status=%d", status)
	}
	status, p2 := getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}})
	if status != 200 || len(p2.Solutions) == 0 {
		t.Fatalf("right-kb resume after wrong-kb 404: status=%d resp=%+v", status, p2)
	}
}

// TestParkedCursorHoldsAdmission: a suspended stream keeps its execution
// slot, so with MaxInFlight=1 the server sheds new work until the cursor
// is drained or expires.
func TestParkedCursorHoldsAdmission(t *testing.T) {
	s, ts := newTestServer(t,
		Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 30 * time.Millisecond},
		KB{Name: "app", Source: appKB})

	status, p1 := getPage(t, ts.URL, "app", url.Values{
		"q": {"app(X, Y, [1,2,3])"}, "limit": {"1"},
	})
	if status != 200 || p1.Cursor == "" {
		t.Fatalf("page 1: status=%d resp=%+v", status, p1)
	}

	// The parked stream owns the only slot: a fresh request queues, times
	// out, and is shed.
	r, err := http.Get(ts.URL + "/run/app")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request while slot parked: status=%d, want 429", r.StatusCode)
	}

	// Resuming does not need a second slot (it reuses the parked one).
	cursor := p1.Cursor
	for cursor != "" {
		var p Response
		status, p = getPage(t, ts.URL, "app", url.Values{"cursor": {cursor}})
		if status != 200 {
			t.Fatalf("resume: status=%d resp=%+v", status, p)
		}
		cursor = p.Cursor
	}
	if got := s.Metrics().CursorsOpen; got != 0 {
		t.Fatalf("cursors open = %d after drain-by-resume", got)
	}

	// Slot released: plain requests flow again.
	r, err = http.Get(ts.URL + "/run/app")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("request after stream finished: status=%d", r.StatusCode)
	}
}

// TestCursorTTLExpiry: an abandoned cursor is reclaimed by its TTL — the
// admission slot frees up and the cursor turns stale.
func TestCursorTTLExpiry(t *testing.T) {
	s, ts := newTestServer(t,
		Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 20 * time.Millisecond, CursorTTL: 60 * time.Millisecond},
		KB{Name: "app", Source: appKB})

	status, p1 := getPage(t, ts.URL, "app", url.Values{
		"q": {"app(X, Y, [1,2,3])"}, "limit": {"1"},
	})
	if status != 200 || p1.Cursor == "" {
		t.Fatalf("page 1: status=%d resp=%+v", status, p1)
	}
	waitFor(t, 2*time.Second, func() bool { return s.Metrics().CursorsExpired == 1 })
	if got := s.Metrics().CursorsOpen; got != 0 {
		t.Fatalf("cursors open after expiry = %d", got)
	}

	status, _ = getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}})
	if status != 404 {
		t.Fatalf("expired cursor: status=%d", status)
	}
	// The slot came back with the expiry.
	r, err := http.Get(ts.URL + "/run/app")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("request after cursor expiry: status=%d", r.StatusCode)
	}
}

// TestDrainClosesParkedCursors: graceful drain must not hang on a parked
// stream — the cursor sweep closes it (releasing the engine's in-flight
// slot) so Drain completes, and later resumes are shed.
func TestDrainClosesParkedCursors(t *testing.T) {
	s, ts := newTestServer(t, Config{}, KB{Name: "app", Source: appKB})

	status, p1 := getPage(t, ts.URL, "app", url.Values{
		"q": {"app(X, Y, [1,2,3])"}, "limit": {"1"},
	})
	if status != 200 || p1.Cursor == "" {
		t.Fatalf("page 1: status=%d resp=%+v", status, p1)
	}

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain with a parked cursor: %v", err)
	}
	if got := s.Metrics().CursorsOpen; got != 0 {
		t.Fatalf("cursors open after drain = %d", got)
	}
	status, _ = getPage(t, ts.URL, "app", url.Values{"cursor": {p1.Cursor}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("resume while drained: status=%d, want 503", status)
	}
}

// TestNegativeCacheTTL: a compile error is served from cache until the TTL
// passes, then the next request retries the compile — so a transient
// failure (here simulated by fixing the kb source between calls) heals
// instead of poisoning the (kb, goal) key forever.
func TestNegativeCacheTTL(t *testing.T) {
	const ttl = 50 * time.Millisecond
	c := newEngineCache(4, ttl)

	broken := "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L" // truncated source
	if _, err := c.get("kb", broken, "app(X,[3],[1,2,3])"); err == nil {
		t.Fatal("broken kb compiled")
	}
	// Before the TTL the error is served from cache even though the
	// source is fixed now.
	if _, err := c.get("kb", appKB, "app(X,[3],[1,2,3])"); err == nil {
		t.Fatal("negative entry expired immediately")
	}
	time.Sleep(ttl + 20*time.Millisecond)
	eng, err := c.get("kb", appKB, "app(X,[3],[1,2,3])")
	if err != nil || eng == nil {
		t.Fatalf("retry after TTL: %v", err)
	}
	// The healed entry is a normal positive entry now.
	if e2, err := c.get("kb", appKB, "app(X,[3],[1,2,3])"); err != nil || e2 != eng {
		t.Fatalf("healed entry not cached: %v", err)
	}
	if c.len() != 1 {
		t.Fatalf("cache len = %d, want 1 (in-place replacement)", c.len())
	}
}

// TestEvictionRetiresMetrics: evicting an engine folds its history into
// the retired accumulator, so the merged view never shrinks.
func TestEvictionRetiresMetrics(t *testing.T) {
	c := newEngineCache(1, time.Minute)
	e1, err := c.get("kb", appKB, "app(X,[3],[1,2,3])")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run(context.Background(), symbol.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	// A second goal evicts the first engine (capacity 1).
	if _, err := c.get("kb", appKB, "app([],X,[7])"); err != nil {
		t.Fatal(err)
	}
	snap := c.retiredSnapshot()
	if snap.Started != 1 || snap.Succeeded != 1 {
		t.Fatalf("retired snapshot started=%d succeeded=%d, want 1/1", snap.Started, snap.Succeeded)
	}
	if snap.InFlight != 0 {
		t.Fatalf("retired snapshot carries in-flight %d, want 0", snap.InFlight)
	}
}

// TestEvictionMonotoneUnderChurn is the monotonicity proof required by the
// eviction fix: with a tiny cache and many distinct goals churning the LRU
// under -race, every consecutive merged engine snapshot must be monotone
// (Started never decreases, latency mass never shrinks) and the pressure
// monitor must observe zero clamped regressions.
func TestEvictionMonotoneUnderChurn(t *testing.T) {
	s, ts := newTestServer(t,
		Config{QueryCache: 2, MaxInFlight: 8, MaxQueue: 64, QueueTimeout: 5 * time.Second,
			ShedP99: time.Hour, PressureInterval: time.Millisecond},
		KB{Name: "app", Source: appKB})

	const workers = 4
	const rounds = 12
	stop := make(chan struct{})
	samplerDone := make(chan struct{})

	// Sampler: merged snapshots must be monotone while the LRU churns.
	sampleErr := make(chan error, 1)
	go func() {
		defer close(samplerDone)
		var lastStarted, lastMass int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.EngineMetrics()
			mass := int64(0)
			for _, c := range m.LatencySeconds.Counts {
				mass += c
			}
			if m.Started < lastStarted || mass < lastMass {
				select {
				case sampleErr <- fmt.Errorf("merged snapshot went backwards: started %d->%d, latency mass %d->%d",
					lastStarted, m.Started, lastMass, mass):
				default:
				}
				return
			}
			lastStarted, lastMass = m.Started, mass
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Distinct goals per (worker, round) force constant eviction
				// in the 2-entry cache.
				goal := fmt.Sprintf("app(X, Y, [%d,%d])", w, i)
				r, err := http.Get(ts.URL + "/query/app?" + url.Values{"q": {goal}}.Encode())
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
				if r.StatusCode != 200 {
					t.Errorf("worker %d round %d: status %d", w, i, r.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-samplerDone
	select {
	case err := <-sampleErr:
		t.Fatal(err)
	default:
	}

	if got := s.Metrics().HistogramRegressions; got != 0 {
		t.Fatalf("pressure monitor clamped %d regressions; merged snapshot is not monotone", got)
	}
	// Runs that begin on an engine after its eviction snapshot are lost by
	// design (a bounded undercount, preferred over phantom in-flight), so
	// the merged Started can trail the true count — but most history must
	// survive retirement, and it must never exceed the truth.
	m := s.EngineMetrics()
	if m.Started < workers*rounds/2 || m.Started > workers*rounds {
		t.Fatalf("merged Started = %d, want within [%d, %d]", m.Started, workers*rounds/2, workers*rounds)
	}
}
