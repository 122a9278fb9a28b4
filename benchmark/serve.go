package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"

	"symbol/internal/obs"
	"symbol/internal/serve"
)

// serveClients is the number of closed-loop connections, one per CPU of the
// reference machine.
const serveClients = 2

type goal struct {
	kb, text string
	want     string // expected output of a single-shot query
}

// Both clients /run the same knowledge bases, so their concurrent
// identical requests are the coalescing candidates. Each client owns its
// hot goal, recurring distinct goal and paginated goal: no two concurrent
// runs share an engine of the byte-budgeted query cache.
var (
	runKBs   = []string{"zebra", "crypt"}
	hotGoals = [serveClients]goal{
		{"conc30", "app([1,2],[3],X)", "X = [1,2,3]\n"},
		{"conc30", "app([4],[5,6],X)", "X = [4,5,6]\n"},
	}
	coldGoals = [serveClients]goal{
		{"conc30", "app([1,2],[4],X)", "X = [1,2,4]\n"},
		{"conc30", "app([1],[2,5],X)", "X = [1,2,5]\n"},
	}
	// Paginated goals are split into pages of pageLimit solutions; their
	// answers, in order, are pageWant.
	pageGoals = [serveClients]goal{
		{kb: "conc30", text: "app(X,Y,[1,2,3])"},
		{kb: "conc30", text: "app(X,Y,[a,b])"},
	}
	pageLimit = 2
	pageWant  = [serveClients][]string{
		{"X = []\nY = [1,2,3]\n", "X = [1]\nY = [2,3]\n", "X = [1,2]\nY = [3]\n", "X = [1,2,3]\nY = []\n"},
		{"X = []\nY = [a,b]\n", "X = [a]\nY = [b]\n", "X = [a,b]\nY = []\n"},
	}
)

// serveKBs are the knowledge bases the server preloads.
var serveKBs = []string{"zebra", "crypt", "conc30"}

// A serve pass is serveRounds rounds of this per-client task mix, in a
// seeded order. Goals and answers are hand-written; none comes from the
// code under test.
const (
	serveRunTasks  = 25 // /run, alternating over runKBs
	serveHotTasks  = 15 // the client's hot /query goal
	serveColdTasks = 3  // the client's recurring distinct goal
	servePageTasks = 4  // the client's paginated query, followed to its last page
	serveRounds    = 10
)

type serveTask struct {
	class string // run, hot, cold or page
	kb    string
	g     goal
	want  []string // expected pages of a paginated query
}

// serveBench is an in-process serve.Server behind an httptest.Server on
// loopback, driven by serveClients closed-loop clients, as application
// back ends that wait for each reply.
type serveBench struct {
	o      *options
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	// server metrics around the traced passes
	before, after     obs.ServerSnapshot
	engBefore, engAft obs.Snapshot
	traced            bool
}

func setupServe(ctx context.Context, o *options) (bench, error) {
	var kbs []serve.KB
	for _, name := range serveKBs {
		kbs = append(kbs, serve.KB{Name: name, Source: benchSource(name)})
	}
	srv, err := serve.New(serve.Config{}, kbs...)
	if err != nil {
		return nil, err
	}
	s := &serveBench{
		o: o, srv: srv, ts: httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	// Warm-up: every task kind once, untimed. Its answers are checked
	// again, and counted, in the timed passes.
	for c := 0; c < serveClients; c++ {
		for _, t := range s.clientTasks(c, nil) {
			s.do(ctx, t, &phase{}, nil)
		}
	}
	return s, nil
}

func (s *serveBench) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// clientTasks is client c's task list for one pass, in the order rng
// gives; a nil rng gives the warm-up, one task of each kind except the
// recurring distinct goal, which stays cold until the timed passes ask for
// it.
func (s *serveBench) clientTasks(c int, rng *rand.Rand) []serveTask {
	hot := serveTask{class: "hot", kb: hotGoals[c].kb, g: hotGoals[c]}
	cold := serveTask{class: "cold", kb: coldGoals[c].kb, g: coldGoals[c]}
	page := serveTask{class: "page", kb: pageGoals[c].kb, g: pageGoals[c], want: pageWant[c]}
	if rng == nil {
		return []serveTask{{class: "run", kb: runKBs[c%len(runKBs)]}, hot, page}
	}
	var ts []serveTask
	for i := 0; i < serveRounds*serveRunTasks; i++ {
		ts = append(ts, serveTask{class: "run", kb: runKBs[i%len(runKBs)]})
	}
	for _, k := range []struct {
		t serveTask
		n int
	}{{hot, serveHotTasks}, {cold, serveColdTasks}, {page, servePageTasks}} {
		for i := 0; i < serveRounds*k.n; i++ {
			ts = append(ts, k.t)
		}
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	if lim := s.o.opsPerPass / serveClients; lim > 0 && lim < len(ts) {
		ts = ts[:lim]
	}
	return ts
}

func (s *serveBench) pass(ctx context.Context, rng *rand.Rand, ph *phase, tr *tracer) error {
	var tasks [serveClients][]serveTask
	for c := range tasks {
		tasks[c] = s.clientTasks(c, rng)
	}
	if tr != nil && !s.traced {
		s.traced = true
		s.before, s.engBefore = s.srv.Metrics(), s.srv.EngineMetrics()
	}
	var trMu sync.Mutex
	var wg sync.WaitGroup
	sec := ph.begin()
	for c := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, t := range tasks[c] {
				s.do(ctx, t, ph, &clientTrace{tr: tr, mu: &trMu})
			}
		}()
	}
	wg.Wait()
	ph.end(sec)
	if tr != nil {
		s.after, s.engAft = s.srv.Metrics(), s.srv.EngineMetrics()
	}
	return nil
}

// clientTrace records the client-side span of each HTTP round trip; the
// two clients share the tracer under mu.
type clientTrace struct {
	tr *tracer
	mu *sync.Mutex
}

func (c *clientTrace) roundTrip(class, kb string, f func()) {
	if c == nil || c.tr == nil {
		f()
		return
	}
	c.mu.Lock()
	op := c.tr.newOp()
	start := time.Now()
	c.mu.Unlock()
	f()
	end := time.Now()
	c.mu.Lock()
	c.tr.spans = append(c.tr.spans, span{
		ID: int64(len(c.tr.spans) + 1), Op: op, Name: "http." + class, Prog: kb,
		Start: int64(start.Sub(c.tr.t0)), End: int64(end.Sub(c.tr.t0)),
	})
	c.mu.Unlock()
}

// do performs one task: a single request, or for a paginated query the
// first page and every page after it, each recorded as an operation.
func (s *serveBench) do(ctx context.Context, t serveTask, ph *phase, ct *clientTrace) {
	switch t.class {
	case "run":
		want := s.o.expect[t.kb]
		s.request(ctx, ph, ct, t.class, t.kb, "/run/"+t.kb, "", func(r *serve.Response) bool {
			return r.OK && r.Output == want
		})
	case "hot", "cold":
		s.request(ctx, ph, ct, t.class, t.kb, "/query/"+t.kb, t.g.text, func(r *serve.Response) bool {
			return r.OK && r.Output == t.g.want
		})
	case "page":
		got := 0
		path := fmt.Sprintf("/query/%s?limit=%d", t.kb, pageLimit)
		body := t.g.text
		for path != "" {
			var cursor string
			ok := s.request(ctx, ph, ct, "page", t.kb, path, body, func(r *serve.Response) bool {
				if len(r.Solutions) == 0 && r.More {
					return false
				}
				for _, sol := range r.Solutions {
					if got >= len(t.want) || sol.Output != t.want[got] {
						return false
					}
					got++
				}
				if r.More {
					cursor = r.Cursor
					return cursor != ""
				}
				return got == len(t.want)
			})
			path, body = "", ""
			if ok && cursor != "" {
				path = fmt.Sprintf("/query/%s?cursor=%s", t.kb, url.QueryEscape(cursor))
			}
		}
	}
}

// request makes one timed HTTP round trip and checks the decoded answer.
func (s *serveBench) request(ctx context.Context, ph *phase, ct *clientTrace, class, kb, path, body string, check func(*serve.Response) bool) bool {
	var resp serve.Response
	var err error
	var status int
	start := time.Now()
	ct.roundTrip(class, kb, func() {
		status, err = s.roundTrip(ctx, path, body, &resp)
	})
	d := time.Since(start)
	ok := err == nil && status == http.StatusOK && check(&resp)
	if !ok {
		logFailure("serve %s %s: status %d, err %v, response %+v", class, path, status, err, resp)
	}
	ph.record(class, kb, d, ok)
	return ok
}

func (s *serveBench) roundTrip(ctx context.Context, path, body string, into *serve.Response) (int, error) {
	method := http.MethodGet
	var rd io.Reader
	if body != "" {
		method = http.MethodPost
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (s *serveBench) layers(ctx context.Context, tr *tracer) (map[string]metric, any, error) {
	wait := s.after.QueueWaitSeconds.Sub(s.before.QueueWaitSeconds)
	quantileMs := func(h obs.Histogram, q float64) float64 {
		v := h.Quantile(q)
		if math.IsInf(v, 1) && len(h.Bounds) > 0 {
			v = h.Bounds[len(h.Bounds)-1]
		}
		return v * 1000
	}
	members := s.after.BatchMembersTotal - s.before.BatchMembersTotal
	runs := s.after.BatchRunsTotal - s.before.BatchRunsTotal
	var answered int64
	for k, v := range s.after.Responses {
		answered += v - s.before.Responses[k]
	}
	shed := s.after.ShedTotal() - s.before.ShedTotal()
	p50 := func(class string) float64 {
		var xs []float64
		if tr != nil {
			for _, sp := range tr.spans {
				if sp.Name == "http."+class {
					xs = append(xs, float64(sp.End-sp.Start)/1e6)
				}
			}
		}
		return median(xs)
	}
	engRuns := s.engAft.Started - s.engBefore.Started
	m := map[string]metric{
		"serve.queue_wait_ms_p50":     {quantileMs(wait, 0.50), "ms"},
		"serve.queue_wait_ms_p99":     {quantileMs(wait, 0.99), "ms"},
		"serve.batch_members_per_run": {float64(members) / float64(max(runs, 1)), "ratio"},
		"serve.shed_ratio":            {float64(shed) / float64(max(answered, 1)), "ratio"},
		"serve.hot_goal_p50_ms":       {p50("hot"), "ms"},
		"serve.cold_goal_p50_ms":      {p50("cold"), "ms"},
		"serve.page_p50_ms":           {p50("page"), "ms"},
	}
	rows := map[string]any{
		"requests_answered":  answered,
		"shed":               shed,
		"batch_members":      members,
		"batch_runs":         runs,
		"engine_runs":        engRuns,
		"engine_pool_misses": s.engAft.PoolMisses - s.engBefore.PoolMisses,
	}
	return m, rows, nil
}
