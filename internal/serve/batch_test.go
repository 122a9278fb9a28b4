package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"symbol/internal/fault"
)

// parkCursor opens a paginated stream and parks it, so the test holds one
// admission slot that is in flight but NOT parked in the coalescer. That
// keeps InFlight strictly above the batcher's parked count, disabling the
// quiet early close — the batch under test can only flush by filling
// (MaxBatch) or by its window timer, which makes the coalescing assertions
// deterministic.
func parkCursor(t *testing.T, ts string) string {
	t.Helper()
	r, err := http.Get(ts + "/query/app?limit=1&q=app(X,Y,[1,2,3])")
	if err != nil {
		t.Fatal(err)
	}
	resp := decode(t, r)
	if r.StatusCode != 200 || !resp.More || resp.Cursor == "" {
		t.Fatalf("parking cursor: status=%d resp=%+v", r.StatusCode, resp)
	}
	return resp.Cursor
}

// TestBatchCoalescesIdenticalGoals is the coalescing contract under -race:
// N concurrent identical goals compile once, gather into ONE batch, and are
// all answered by ONE engine run — while each request still gets its own
// complete, correct response. With MaxBatch 1 the same burst is the
// uncoalesced server: every request is a full batch of its own, so it runs
// at once and never waits out the window.
func TestBatchCoalescesIdenticalGoals(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name          string
		maxBatch      int
		batches, runs int64
	}{
		{"coalesced", n, 1, 1},
		{"batch of one", 1, n, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const window = 2 * time.Second // flush must come from the batch filling
			s, ts := newTestServer(t, Config{
				MaxInFlight: n + 2,
				MaxBatch:    tc.maxBatch,
				BatchWindow: window,
			}, KB{Name: "app", Source: appKB})

			parkCursor(t, ts.URL)

			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r, err := http.Get(ts.URL + "/query/app?q=app(X,[3],[1,2,3])")
					if err != nil {
						errs <- err
						return
					}
					resp := decode(t, r)
					if r.StatusCode != 200 || !resp.OK || resp.Output != "X = [1,2]\n" {
						errs <- fmt.Errorf("status=%d resp=%+v", r.StatusCode, resp)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if took := time.Since(start); took > window/2 {
				t.Errorf("burst took %v, want well under the %v window", took, window)
			}

			m := s.Metrics()
			if m.BatchesTotal != tc.batches {
				t.Errorf("BatchesTotal = %d, want %d", m.BatchesTotal, tc.batches)
			}
			if m.BatchMembersTotal != n {
				t.Errorf("BatchMembersTotal = %d, want %d", m.BatchMembersTotal, n)
			}
			if m.BatchRunsTotal != tc.runs {
				t.Errorf("BatchRunsTotal = %d, want %d", m.BatchRunsTotal, tc.runs)
			}
			// One cache entry per distinct goal: the cursor's and the shared one.
			if got := s.cache.len(); got != 2 {
				t.Errorf("cache entries = %d, want 2", got)
			}
		})
	}
}

// TestBatchMemberBudgetsIndependent: members of one batch with different
// budgets land in different classes and keep their own outcomes — one
// member faults on its tightened step budget (422) while its siblings in
// the same batch succeed (200).
func TestBatchMemberBudgetsIndependent(t *testing.T) {
	const n = 5 // 4 default-budget members + 1 starved member
	s, ts := newTestServer(t, Config{
		MaxInFlight: n + 2,
		MaxBatch:    n,
		BatchWindow: 2 * time.Second,
	}, KB{Name: "app", Source: appKB})

	parkCursor(t, ts.URL)

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		starved := i == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("GET", ts.URL+"/query/app?q=app(X,[3],[1,2,3])", nil)
			if starved {
				req.Header.Set(HeaderMaxSteps, "1")
			}
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp := decode(t, r)
			if starved {
				if r.StatusCode != 422 || resp.Fault != fault.StepLimit.String() {
					errs <- fmt.Errorf("starved member: status=%d resp=%+v", r.StatusCode, resp)
				}
			} else if r.StatusCode != 200 || !resp.OK || resp.Output != "X = [1,2]\n" {
				errs <- fmt.Errorf("sibling: status=%d resp=%+v", r.StatusCode, resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics()
	if m.BatchesTotal != 1 || m.BatchMembersTotal != n {
		t.Errorf("batches=%d members=%d, want 1/%d", m.BatchesTotal, m.BatchMembersTotal, n)
	}
	if m.BatchRunsTotal != 2 {
		t.Errorf("BatchRunsTotal = %d, want 2 (default class + starved class)", m.BatchRunsTotal)
	}
}

// TestTenantQuotaSheds: a tenant at its provisioned concurrency sheds with
// 429 tenant_quota before touching the global gate, other tenants are
// unaffected, and finishing a request frees the quota slot.
func TestTenantQuotaSheds(t *testing.T) {
	cfg := Config{
		MaxInFlight:    4,
		RequestTimeout: 2 * time.Second,
		Tenants: map[string]Tenant{
			"metered": {MaxConcurrent: 1, Timeout: 2 * time.Second},
		},
	}
	s, ts := newTestServer(t, cfg, KB{Name: "loop", Source: loopKB}, KB{Name: "app", Source: appKB})
	client := ts.Client()

	// Occupy the metered tenant's single slot with a long run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("GET", ts.URL+"/run/loop", nil)
		req.Header.Set(HeaderTenant, "metered")
		req.Header.Set(HeaderTimeout, "500ms")
		r, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp := decode(t, r)
		if r.StatusCode != 504 {
			t.Errorf("long run: status=%d resp=%+v", r.StatusCode, resp)
		}
	}()
	waitFor(t, 2*time.Second, func() bool { return s.Metrics().InFlight >= 1 })

	// Second metered request sheds with the tenant_quota reason.
	req, _ := http.NewRequest("GET", ts.URL+"/run/app", nil)
	req.Header.Set(HeaderTenant, "metered")
	r, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := decode(t, r)
	if r.StatusCode != 429 || r.Header.Get(ShedReasonHeader) != "tenant_quota" {
		t.Fatalf("quota shed: status=%d shed=%q resp=%+v", r.StatusCode, r.Header.Get(ShedReasonHeader), resp)
	}
	if got := s.Metrics().Shed["tenant_quota"]; got != 1 {
		t.Errorf("shed tenant_quota = %d, want 1", got)
	}

	// The default tenant is not affected by the metered tenant's quota.
	r, err = client.Get(ts.URL + "/run/app")
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 200 || !resp.OK {
		t.Fatalf("default tenant during quota pressure: status=%d resp=%+v", r.StatusCode, resp)
	}

	// After the long run finishes its slot is free again.
	<-done
	req, _ = http.NewRequest("GET", ts.URL+"/run/app", nil)
	req.Header.Set(HeaderTenant, "metered")
	r, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp = decode(t, r)
	if r.StatusCode != 200 || !resp.OK {
		t.Fatalf("metered tenant after release: status=%d resp=%+v", r.StatusCode, resp)
	}
}

// TestCachePinnedEntrySurvivesCap: eviction down to the entry cap skips a
// pinned entry, so the survivor is the pinned engine, not the most recent.
func TestCachePinnedEntrySurvivesCap(t *testing.T) {
	p := newEngineCache(1, time.Minute)
	eng, unpin, err := p.getPinned("app", appKB, "app(X,[3],[1,2,3])")
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	if _, err := p.get("app", appKB, "app([1],Y,[1,2])"); err != nil {
		t.Fatal(err)
	}
	if got := p.len(); got != 1 {
		t.Errorf("pinned cache entries = %d, want 1 (the cap evicts the unpinned entry)", got)
	}
	same, err := p.get("app", appKB, "app(X,[3],[1,2,3])")
	if err != nil {
		t.Fatal(err)
	}
	if same != eng {
		t.Error("pinned entry was evicted: re-get compiled a fresh engine")
	}
}
