// Command symbolload drives load at a symbolserve instance and reports a
// latency/shed profile: queries per second, p50/p99/p999, status classes,
// the shed rate, and qps_at_p99 — throughput discounted when the p99
// latency exceeds its target, the serving figure of merit the CI trend
// gate tracks. It doubles as the CI smoke harness (-min-qps / -max-5xx /
// -min-speedup / -compare turn the report into assertions) and as a chaos
// generator (-chaos mixes in slow queries, budget-exhausting queries, and
// client disconnects to exercise the server's failure paths).
//
// Usage:
//
//	symbolload -self -d 5s -c 8                  # in-process server, embedded suite
//	symbolload -url http://host:8080 -kb qsort   # remote server
//	symbolload -self -chaos -json                # failure-path mix, JSON report
//	symbolload -self -ab -warmup 1s -c 8         # unbatched vs batched A/B
//
// With -ab the harness serves the suite twice in one process — first with
// request coalescing disabled, then enabled — under identical load, and
// reports both profiles plus the batching speedup. Because both phases run
// on the same machine seconds apart, the speedup is robust to host noise
// in a way absolute qps floors are not.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/serve"
)

// Report is the JSON shape of a load run (committed as BENCH_serve.json).
// QPSAtP99 is qps scaled by min(1, p99_target/p99): pure throughput while
// the p99 meets its target, discounted in proportion once it does not — so
// a change cannot buy throughput by letting tail latency collapse. The
// Unbatched* fields and BatchSpeedup are present only for -ab runs; the
// speedup is the ratio of the two phases' QPSAtP99.
type Report struct {
	Target      string         `json:"target"`
	KB          string         `json:"kb"`
	Mode        string         `json:"mode"`
	Dispatch    string         `json:"dispatch,omitempty"`
	Chaos       bool           `json:"chaos"`
	Workers     int            `json:"workers"`
	WarmupS     float64        `json:"warmup_s,omitempty"`
	DurationS   float64        `json:"duration_s"`
	Requests    int            `json:"requests"`
	QPS         float64        `json:"qps"`
	P50MS       float64        `json:"p50_ms"`
	P99MS       float64        `json:"p99_ms"`
	P999MS      float64        `json:"p999_ms"`
	P99TargetMS float64        `json:"p99_target_ms,omitempty"`
	QPSAtP99    float64        `json:"qps_at_p99,omitempty"`
	Statuses    map[string]int `json:"statuses"`
	Proven      int            `json:"proven"`      // 200s whose goal succeeded
	NoSolution  int            `json:"no_solution"` // 200s that answered a clean "no"
	Sheds       int            `json:"sheds"`
	ShedRate    float64        `json:"shed_rate"`
	ShedReason  map[string]int `json:"shed_reasons,omitempty"`
	Faults      map[string]int `json:"faults,omitempty"`
	Disconnect  int            `json:"client_disconnects,omitempty"`
	Errors      int            `json:"transport_errors"`
	FiveXX      int            `json:"non_shed_5xx"`

	UnbatchedQPS      float64 `json:"unbatched_qps,omitempty"`
	UnbatchedP99MS    float64 `json:"unbatched_p99_ms,omitempty"`
	UnbatchedQPSAtP99 float64 `json:"unbatched_qps_at_p99,omitempty"`
	BatchSpeedup      float64 `json:"batch_speedup,omitempty"`
}

type sample struct {
	status     int
	ok         bool // the goal was proven (200 with ok=true)
	latency    time.Duration
	shedReason string
	faultName  string
	transport  bool // transport-level failure (includes chaos disconnects)
}

// loadSpec is everything one measured phase needs.
type loadSpec struct {
	kb       string
	mode     string
	goal     string
	workers  int
	warmup   time.Duration
	duration time.Duration
	chaos    bool
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "symbolload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		url        = flag.String("url", "", "target symbolserve base URL")
		self       = flag.Bool("self", false, "serve the embedded suite in-process and load that")
		kb         = flag.String("kb", "", "knowledge base to query (default: first runnable)")
		mode       = flag.String("mode", "run", "request mode: run (KB's main/0) or query (posted goal)")
		goal       = flag.String("goal", "", "goal for -mode query (required with that mode)")
		workers    = flag.Int("c", 8, "concurrent workers")
		warmup     = flag.Duration("warmup", 0, "warm the target before measuring; warmup requests are excluded from the report")
		duration   = flag.Duration("d", 5*time.Second, "measured load duration")
		dispatchF  = flag.String("dispatch", "", "execution core for the -self server: legacy, nofuse, fused (default auto)")
		ab         = flag.Bool("ab", false, "A/B: run the load twice in-process (-self), unbatched then batched, and report the speedup")
		chaos      = flag.Bool("chaos", false, "mix in slow queries, budget bombs, and client disconnects")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON")
		p99Target  = flag.Duration("p99-target", 50*time.Millisecond, "p99 target for the qps_at_p99 figure of merit")
		minQPS     = flag.Float64("min-qps", 0, "fail unless achieved QPS is at least this")
		max5xx     = flag.Int("max-5xx", -1, "fail if non-shed 5xx responses exceed this (-1 = no assertion)")
		minSpeedup = flag.Float64("min-speedup", 0, "with -ab: fail unless batched qps_at_p99 is at least this multiple of unbatched")
		compare    = flag.String("compare", "", "committed report JSON to trend-gate qps_at_p99 against")
		tolerance  = flag.Float64("tolerance", 30, "with -compare: allowed qps_at_p99 regression, percent")
	)
	flag.Parse()

	disp, err := symbol.ParseDispatch(*dispatchF)
	if err != nil {
		return err
	}
	if *mode != "run" && *mode != "query" {
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	if *mode == "query" && *goal == "" {
		return fmt.Errorf("-mode query needs -goal (a goal against the kb's own predicates)")
	}
	if *ab && !*self {
		return fmt.Errorf("-ab compares two in-process server configurations: pass -self")
	}
	if *dispatchF != "" && !*self {
		return fmt.Errorf("-dispatch configures the in-process server: pass -self (a remote server picks its own core)")
	}

	spec := loadSpec{
		kb: *kb, mode: *mode, goal: *goal,
		workers: *workers, warmup: *warmup, duration: *duration, chaos: *chaos,
	}

	var rep Report
	if *ab {
		unbatched, err := phase(disp, false, &spec)
		if err != nil {
			return fmt.Errorf("unbatched phase: %w", err)
		}
		batched, err := phase(disp, true, &spec)
		if err != nil {
			return fmt.Errorf("batched phase: %w", err)
		}
		finishReport(&unbatched, *p99Target)
		finishReport(&batched, *p99Target)
		rep = batched
		rep.UnbatchedQPS = unbatched.QPS
		rep.UnbatchedP99MS = unbatched.P99MS
		rep.UnbatchedQPSAtP99 = unbatched.QPSAtP99
		if unbatched.QPSAtP99 > 0 {
			rep.BatchSpeedup = batched.QPSAtP99 / unbatched.QPSAtP99
		}
	} else if *self {
		rep, err = phase(disp, true, &spec)
		if err != nil {
			return err
		}
		finishReport(&rep, *p99Target)
	} else {
		if *url == "" {
			return fmt.Errorf("no target: pass -url or -self")
		}
		base := strings.TrimRight(*url, "/")
		if err := resolveKB(base, &spec); err != nil {
			return err
		}
		samples := fire(base, &spec)
		rep = summarize(samples, base, &spec)
		finishReport(&rep, *p99Target)
	}
	rep.Dispatch = *dispatchF

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(rep)
	}

	if *minQPS > 0 && rep.QPS < *minQPS {
		return fmt.Errorf("assertion failed: qps %.1f < min-qps %.1f", rep.QPS, *minQPS)
	}
	if *max5xx >= 0 && rep.FiveXX > *max5xx {
		return fmt.Errorf("assertion failed: %d non-shed 5xx responses > max-5xx %d", rep.FiveXX, *max5xx)
	}
	if *minSpeedup > 0 {
		if !*ab {
			return fmt.Errorf("-min-speedup needs -ab")
		}
		if rep.BatchSpeedup < *minSpeedup {
			return fmt.Errorf("assertion failed: batch speedup %.2fx < min-speedup %.2fx (batched %.1f vs unbatched %.1f qps_at_p99)",
				rep.BatchSpeedup, *minSpeedup, rep.QPSAtP99, rep.UnbatchedQPSAtP99)
		}
	}
	if *compare != "" {
		if err := trendGate(*compare, *tolerance, rep); err != nil {
			return err
		}
	}
	return nil
}

// phase serves the embedded suite in-process — MaxInFlight at least the
// worker count, so a coalescing window can gather every concurrent request
// into one batch — and runs the configured load against it.
func phase(disp symbol.Dispatch, batched bool, spec *loadSpec) (Report, error) {
	inFlight := spec.workers
	if g := runtime.GOMAXPROCS(0); g > inFlight {
		inFlight = g
	}
	var kbs []serve.KB
	for _, b := range benchprog.All() {
		kbs = append(kbs, serve.KB{Name: b.Name, Source: b.Source})
	}
	s, err := serve.New(serve.Config{
		MaxInFlight:     inFlight,
		Dispatch:        disp,
		DisableBatching: !batched,
	}, kbs...)
	if err != nil {
		return Report{}, err
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()
	if err := resolveKB(ts.URL, spec); err != nil {
		return Report{}, err
	}
	samples := fire(ts.URL, spec)
	rep := summarize(samples, ts.URL, spec)
	if !batched {
		rep.Target += " (unbatched)"
	}
	return rep, nil
}

// finishReport derives the qps_at_p99 figure of merit: throughput taken at
// face value while the p99 meets its target, discounted proportionally
// once it exceeds it.
func finishReport(rep *Report, p99Target time.Duration) {
	rep.P99TargetMS = float64(p99Target) / float64(time.Millisecond)
	rep.QPSAtP99 = rep.QPS
	if rep.P99MS > rep.P99TargetMS && rep.P99MS > 0 {
		rep.QPSAtP99 = rep.QPS * rep.P99TargetMS / rep.P99MS
	}
}

// trendGate asserts the run's qps_at_p99 against a committed report's,
// within a noise tolerance. The committed figure is the floor of record:
// a regression past the tolerance fails CI; improvements pass silently
// (refresh the committed file to raise the floor).
func trendGate(path string, tolerancePct float64, rep Report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trend gate: %w", err)
	}
	var committed Report
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("trend gate: %s: %w", path, err)
	}
	if committed.QPSAtP99 <= 0 {
		return fmt.Errorf("trend gate: %s has no qps_at_p99 figure; regenerate it with this harness", path)
	}
	floor := committed.QPSAtP99 * (1 - tolerancePct/100)
	if rep.QPSAtP99 < floor {
		return fmt.Errorf("trend gate failed: qps_at_p99 %.1f < floor %.1f (committed %.1f - %.0f%% tolerance)",
			rep.QPSAtP99, floor, committed.QPSAtP99, tolerancePct)
	}
	return nil
}

// resolveKB fills spec.kb from the target's /kbs listing when unset.
func resolveKB(base string, spec *loadSpec) error {
	if spec.kb != "" {
		return nil
	}
	name, err := firstRunnableKB(base)
	if err != nil {
		return err
	}
	spec.kb = name
	return nil
}

// firstRunnableKB asks the target's /kbs listing for a KB with a main/0.
func firstRunnableKB(base string) (string, error) {
	r, err := http.Get(base + "/kbs")
	if err != nil {
		return "", err
	}
	defer r.Body.Close()
	var kbs []struct {
		Name     string `json:"name"`
		Runnable bool   `json:"runnable"`
	}
	if err := json.NewDecoder(r.Body).Decode(&kbs); err != nil {
		return "", fmt.Errorf("decoding /kbs: %w", err)
	}
	for _, k := range kbs {
		if k.Runnable {
			return k.Name, nil
		}
	}
	return "", fmt.Errorf("target serves no runnable kb")
}

// fire runs the worker pool and collects one sample per measured request.
// Requests issued during the warmup window are driven identically but
// discarded: they exist to populate the engine caches and state pools, and
// their cold-path latencies must not pollute the percentiles.
func fire(base string, spec *loadSpec) []sample {
	warmupEnd := time.Now().Add(spec.warmup)
	deadline := warmupEnd.Add(spec.duration)
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for w := 0; w < spec.workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []sample
			for time.Now().Before(deadline) {
				s := oneRequest(base, spec.kb, spec.mode, spec.goal, spec.chaos, rng)
				if time.Now().After(warmupEnd) {
					local = append(local, s)
				}
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(int64(w) + 1)
	}
	wg.Wait()
	return samples
}

// oneRequest issues a single load request. In chaos mode roughly a third
// of the traffic exercises a failure path: a budget bomb (1-step budget,
// typed 422), a slow query (1ms wall budget, typed 504), or a client
// disconnect (context cancelled mid-flight, server records client_gone).
func oneRequest(base, kb, mode, goal string, chaos bool, rng *rand.Rand) sample {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var req *http.Request
	if mode == "query" {
		req, _ = http.NewRequestWithContext(ctx, "POST", base+"/query/"+kb, strings.NewReader(goal))
	} else {
		req, _ = http.NewRequestWithContext(ctx, "GET", base+"/run/"+kb, nil)
	}

	disconnect := false
	if chaos {
		switch rng.Intn(9) {
		case 0: // budget bomb: exhaust the step budget immediately
			req.Header.Set(serve.HeaderMaxSteps, "1")
		case 1: // slow query: a wall budget almost nothing finishes inside
			req.Header.Set(serve.HeaderTimeout, "100us")
		case 2: // client disconnect mid-flight
			disconnect = true
			go func() {
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				cancel()
			}()
		}
	}

	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	lat := time.Since(start)
	if err != nil {
		return sample{latency: lat, transport: !disconnect}
	}
	defer resp.Body.Close()
	var body struct {
		OK    bool   `json:"ok"`
		Fault string `json:"fault"`
	}
	raw, _ := io.ReadAll(resp.Body)
	json.Unmarshal(raw, &body)
	return sample{
		status:     resp.StatusCode,
		ok:         body.OK,
		latency:    lat,
		shedReason: resp.Header.Get(serve.ShedReasonHeader),
		faultName:  body.Fault,
	}
}

func summarize(samples []sample, base string, spec *loadSpec) Report {
	rep := Report{
		Target:     base,
		KB:         spec.kb,
		Mode:       spec.mode,
		Chaos:      spec.chaos,
		Workers:    spec.workers,
		WarmupS:    spec.warmup.Seconds(),
		DurationS:  spec.duration.Seconds(),
		Requests:   len(samples),
		Statuses:   map[string]int{},
		ShedReason: map[string]int{},
		Faults:     map[string]int{},
	}
	var lats []time.Duration
	for _, s := range samples {
		if s.transport {
			rep.Errors++
			continue
		}
		if s.status == 0 {
			rep.Disconnect++
			continue
		}
		rep.Statuses[fmt.Sprintf("%d", s.status)]++
		lats = append(lats, s.latency)
		if s.status == 200 {
			if s.ok {
				rep.Proven++
			} else {
				rep.NoSolution++
			}
		}
		if s.shedReason != "" {
			rep.Sheds++
			rep.ShedReason[s.shedReason]++
		} else if s.status >= 500 {
			rep.FiveXX++
		}
		if s.faultName != "" {
			rep.Faults[s.faultName]++
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(lats)-1))
			return float64(lats[i]) / float64(time.Millisecond)
		}
		rep.P50MS, rep.P99MS, rep.P999MS = q(0.50), q(0.99), q(0.999)
	}
	if spec.duration > 0 {
		rep.QPS = float64(len(samples)) / spec.duration.Seconds()
	}
	if answered := len(lats); answered > 0 {
		rep.ShedRate = float64(rep.Sheds) / float64(answered)
	}
	return rep
}

func printReport(r Report) {
	fmt.Printf("target     %s  kb=%s mode=%s chaos=%v\n", r.Target, r.KB, r.Mode, r.Chaos)
	fmt.Printf("load       %d workers x %.1fs (warmup %.1fs)\n", r.Workers, r.DurationS, r.WarmupS)
	fmt.Printf("requests   %d (%.1f q/s)\n", r.Requests, r.QPS)
	fmt.Printf("latency    p50 %.2fms  p99 %.2fms  p999 %.2fms\n", r.P50MS, r.P99MS, r.P999MS)
	if r.QPSAtP99 > 0 {
		fmt.Printf("merit      qps_at_p99 %.1f (target p99 %.0fms)\n", r.QPSAtP99, r.P99TargetMS)
	}
	var keys []string
	for k := range r.Statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("statuses  ")
	for _, k := range keys {
		fmt.Printf(" %s:%d", k, r.Statuses[k])
	}
	fmt.Println()
	fmt.Printf("answers    %d proven, %d no-solution\n", r.Proven, r.NoSolution)
	fmt.Printf("sheds      %d (rate %.3f) %v\n", r.Sheds, r.ShedRate, r.ShedReason)
	if len(r.Faults) > 0 {
		fmt.Printf("faults     %v\n", r.Faults)
	}
	if r.Disconnect > 0 || r.Errors > 0 {
		fmt.Printf("aborted    %d client disconnects, %d transport errors\n", r.Disconnect, r.Errors)
	}
	fmt.Printf("non-shed 5xx %d\n", r.FiveXX)
	if r.BatchSpeedup > 0 {
		fmt.Printf("batching   %.2fx qps_at_p99 vs unbatched (%.1f vs %.1f; p99 %.2fms vs %.2fms)\n",
			r.BatchSpeedup, r.QPSAtP99, r.UnbatchedQPSAtP99, r.P99MS, r.UnbatchedP99MS)
	}
}
