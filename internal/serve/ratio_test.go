package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbol/internal/benchprog"
)

// TestRatioBatchedOverUnbatched gates request coalescing: closed-loop
// clients asking for zebra's main/0 must get at least 1.3 times the
// answers per second from a batching server as from one with
// DisableBatching, as the median over pairs of phases. Each phase runs on
// a fresh in-process server, and the pairs alternate which configuration
// goes first, so the ratio depends neither on the machine's speed nor on
// phase order. With both phases unbatched the median reads 0.9–1.1.
func TestRatioBatchedOverUnbatched(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing ratio skipped under -short")
	}
	const (
		clients = 8
		pairs   = 5
		warmup  = 100 * time.Millisecond
		measure = 300 * time.Millisecond
	)
	zebra, err := benchprog.Get("zebra")
	if err != nil {
		t.Fatal(err)
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		var n [2]int64 // answers: n[0] unbatched, n[1] batched
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0} // alternate which configuration goes first
		}
		for _, j := range order {
			var err error
			if n[j], err = closedLoop(zebra, j == 1, clients, warmup, measure); err != nil {
				t.Fatalf("batched=%v: %v", j == 1, err)
			}
		}
		if n[0] == 0 {
			t.Fatal("the unbatched server answered nothing")
		}
		ratios = append(ratios, float64(n[1])/float64(n[0]))
		t.Logf("unbatched %6.0f answers/s  batched %6.0f answers/s  ratio %.2f",
			float64(n[0])/measure.Seconds(), float64(n[1])/measure.Seconds(), ratios[i])
	}
	slices.Sort(ratios)
	ratio := ratios[pairs/2]
	t.Logf("batched over unbatched: median %.2fx answers/s over %d pairs", ratio, pairs)
	if ratio < 1.3 {
		t.Errorf("batching gives %.2fx the unbatched answer rate, want at least 1.3x", ratio)
	}
}

// closedLoop serves b on a fresh server and has clients request its main/0
// back to back, checking every answer. It returns the answers completed
// in the measure window that follows the warmup.
func closedLoop(b *benchprog.Benchmark, batched bool, clients int, warmup, measure time.Duration) (int64, error) {
	s, err := New(Config{MaxInFlight: clients, DisableBatching: !batched}, KB{Name: b.Name, Source: b.Source})
	if err != nil {
		return 0, err
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	from := time.Now().Add(warmup)
	until := from.Add(measure)
	var answered atomic.Int64
	errs := make(chan error, clients) // each client sends at most one
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				t0 := time.Now()
				if err := ask(client, ts.URL+"/run/"+b.Name, b.Expect); err != nil {
					errs <- err
					return
				}
				if t0.After(from) && time.Now().Before(until) {
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return answered.Load(), nil
}

// ask issues one request and checks that it proved the goal with want as
// its output.
func ask(client *http.Client, url, want string) error {
	r, err := client.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	var resp Response
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK || !resp.OK || resp.Output != want {
		return fmt.Errorf("status %d, response %+v, want output %q", r.StatusCode, resp, want)
	}
	return nil
}
