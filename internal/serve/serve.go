// Package serve is the fault-tolerant query-serving front end over
// symbol.Engine: the layer that stands between real traffic and the
// engine's pooled executors. Its jobs, in request order:
//
//   - Admission control: a bounded in-flight semaphore fronted by a
//     bounded, deadline-aware wait queue (admission.go). Overload turns
//     into fast 429/503 + Retry-After responses instead of unbounded
//     goroutine pileup.
//   - Load shedding: a windowed p99 monitor over the engines' latency
//     histograms (pressure.go) proactively rejects new work while the
//     backend is slow *now*, keeping admitted requests' latency bounded.
//   - Budget enforcement: every request runs under a tenant envelope
//     (tenant.go) — step, memory and wall-clock ceilings that request
//     headers can tighten but never raise.
//   - Typed failure mapping: every fault.Kind has a deliberate HTTP
//     status (status.go); handlers are panic-isolated, so no query can
//     take the process down.
//   - Graceful drain: BeginDrain stops admissions, Drain waits for
//     in-flight runs and hard-cancels stragglers as typed fault.Canceled
//     within the drain deadline — every accepted request still gets a
//     response.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"symbol"
	"symbol/internal/fault"
	"symbol/internal/obs"
)

// Config tunes the front end. The zero value gets sensible defaults from
// withDefaults; all durations are per-request unless noted.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default
	// GOMAXPROCS: the engine's RunBatch fan-out width).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 4×MaxInFlight). Beyond it requests shed with 429 queue_full.
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for admission
	// (default 1s). Past it the request sheds with 429 queue_timeout.
	QueueTimeout time.Duration
	// RequestTimeout is the default wall-clock budget of one query
	// (default 5s); tenants and the X-Symbol-Timeout header tighten it.
	RequestTimeout time.Duration
	// ShedP99 sheds new work while the windowed p99 of completed runs
	// exceeds it (0 = pressure shedding off).
	ShedP99 time.Duration
	// PressureInterval is the p99 window length (default 250ms).
	PressureInterval time.Duration
	// QueryCache is the LRU capacity of compiled (kb, goal) engines
	// (default 64).
	QueryCache int
	// BatchWindow is how long an admitted single-shot query may park
	// waiting for coalescing company (default 2ms). A window closes early
	// when its batch fills (MaxBatch); when every admitted request is
	// already parked it closes after a short linger (a small fraction of
	// the window, though never shorter than the platform's timer
	// resolution; see DESIGN.md §13).
	BatchWindow time.Duration
	// MaxBatch bounds the members of one coalesced batch (default
	// MaxInFlight). MaxBatch 1 is the uncoalesced server: every batch is
	// full on arrival and runs at once, waiting neither window nor linger.
	MaxBatch int
	// CursorTTL bounds how long a paginated query's suspended stream stays
	// parked waiting for the next page (default 30s). A parked stream holds
	// its admission slot and a pooled machine state, so expiry is the
	// backstop against clients that never fetch the rest.
	CursorTTL time.Duration
	// SnapshotDir names a directory of .sym snapshot files preloaded at
	// boot (see symbol.Load). Program snapshots become knowledge bases
	// named after their file; query snapshots pre-warm the compiled-query
	// tier, so the first request for that (kb, goal) loads the snapshot
	// instead of compiling. Files that fail to load are logged and
	// skipped — a corrupt snapshot must not keep the server down.
	SnapshotDir string
	// DefaultTenant is the budget envelope of requests without an
	// X-Symbol-Tenant header; Tenants maps named envelopes.
	DefaultTenant Tenant
	Tenants       map[string]Tenant
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.PressureInterval <= 0 {
		c.PressureInterval = 250 * time.Millisecond
	}
	if c.QueryCache <= 0 {
		c.QueryCache = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = c.MaxInFlight
	}
	if c.CursorTTL <= 0 {
		c.CursorTTL = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Fixed serving constants: the Retry-After hint on shed responses (whole
// seconds), the largest query body read, and how long a (kb, goal) compile
// error stays negatively cached. After negCacheTTL a retry recompiles, so
// a fixed KB reload or a transient resource-shaped failure cannot poison
// the key forever.
const (
	retryAfter   = "1"
	maxBodyBytes = 1 << 20
	negCacheTTL  = 5 * time.Second
)

// KB is one preloaded knowledge base: a named Prolog source served at
// /run/{name} (its own main/0, pooled engine) and queryable at
// /query/{name} (arbitrary goals, compiled-query LRU).
//
// Snapshot, when set, is a binary program snapshot (symbol.Load format):
// the KB loads from it instead of compiling Source, and the snapshot's
// embedded source backfills Source when the latter is empty so /query
// still works. If the snapshot fails to load and Source is non-empty, the
// KB falls back to compiling Source.
type KB struct {
	Name     string
	Source   string
	Snapshot []byte
}

type kbEntry struct {
	name   string
	source string
	eng    *symbol.Engine // nil when the source has no runnable main/0
	runErr error          // why eng is nil
}

// Server is the front end. It implements http.Handler; build one with New,
// mount it, and call Drain on shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	kbs   map[string]*kbEntry
	names []string

	met     obs.ServerMetrics
	gate    *gate
	mon     *monitor
	cache   *engineCache
	cursors *cursorTable
	quotas  *quotaTable
	batch   *batcher

	draining    atomic.Bool
	drainCtx    context.Context
	drainCancel context.CancelFunc
	flight      *inflightTracker
}

// New builds a Server over the given knowledge bases. A KB whose source
// cannot be compiled standalone (for example, it defines no main/0) is
// still registered for /query; its /run endpoint reports the compile error.
func New(cfg Config, kbs ...KB) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		kbs: map[string]*kbEntry{},
	}
	s.cache = newEngineCache(cfg.QueryCache, negCacheTTL)
	for _, kb := range kbs {
		if kb.Name == "" {
			return nil, fmt.Errorf("serve: knowledge base with empty name")
		}
		if _, dup := s.kbs[kb.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate knowledge base %q", kb.Name)
		}
		e := &kbEntry{name: kb.Name, source: kb.Source}
		var prog *symbol.Program
		var err error
		if len(kb.Snapshot) > 0 {
			start := time.Now()
			prog, err = symbol.Load(context.Background(), kb.Snapshot)
			if err == nil {
				if e.source == "" {
					e.source = prog.Source()
				}
				cfg.Logf("serve: kb %s: snapshot loaded in %.2fms", kb.Name, msSince(start))
			} else if kb.Source != "" {
				cfg.Logf("serve: kb %s: snapshot rejected (%v), compiling source", kb.Name, err)
				prog, err = symbol.Load(context.Background(), []byte(kb.Source))
			}
		} else {
			prog, err = symbol.Load(context.Background(), []byte(kb.Source))
		}
		if err != nil {
			e.runErr = err
		} else {
			e.eng = symbol.NewEngine(prog)
		}
		s.kbs[kb.Name] = e
		s.names = append(s.names, kb.Name)
	}
	if cfg.SnapshotDir != "" {
		if err := s.loadSnapshotDir(cfg.SnapshotDir); err != nil {
			return nil, err
		}
	}
	sort.Strings(s.names)
	s.gate = newGate(cfg.MaxInFlight, cfg.MaxQueue, &s.met)
	s.mon = newMonitor(s.EngineMetrics, &s.met, cfg.ShedP99, cfg.PressureInterval)
	s.cursors = newCursorTable(cfg.CursorTTL, &s.met)
	s.quotas = newQuotaTable(cfg)
	s.flight = newInflightTracker()
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.batch = newBatcher(s)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.protect(s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.protect(s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.protect(s.handleMetrics))
	s.mux.HandleFunc("GET /kbs", s.protect(s.handleKBs))
	s.mux.HandleFunc("GET /run/{kb}", s.protect(s.handleRun))
	s.mux.HandleFunc("POST /run/{kb}", s.protect(s.handleRun))
	s.mux.HandleFunc("GET /query/{kb}", s.protect(s.handleQuery))
	s.mux.HandleFunc("POST /query/{kb}", s.protect(s.handleQuery))
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// KBNames lists the preloaded knowledge bases (sorted), including those
// loaded from Config.SnapshotDir.
func (s *Server) KBNames() []string { return append([]string(nil), s.names...) }

// loadSnapshotDir preloads every .sym file under dir at boot: program
// snapshots become knowledge bases named after their file, query snapshots
// pre-warm the compiled-query tier for their (source, goal). Each file's
// load time is logged — the whole point of snapshots is cold-start, so the
// cost is worth a line. A file that fails to load is logged and skipped:
// one corrupt snapshot must not keep the server from starting.
func (s *Server) loadSnapshotDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: snapshot dir: %w", err)
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".sym") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			s.cfg.Logf("serve: snapshot %s: %v (skipped)", ent.Name(), err)
			continue
		}
		start := time.Now()
		prog, err := symbol.Load(context.Background(), data)
		if err != nil {
			s.cfg.Logf("serve: snapshot %s: %v (skipped)", ent.Name(), err)
			continue
		}
		if goal := prog.Goal(); goal != "" {
			s.cache.addWarm(prog.Source(), goal, data)
			s.cfg.Logf("serve: snapshot %s: query %q warmed in %.2fms", ent.Name(), goal, msSince(start))
			continue
		}
		name := strings.TrimSuffix(ent.Name(), ".sym")
		if _, dup := s.kbs[name]; dup {
			return fmt.Errorf("serve: snapshot %s: duplicate knowledge base %q", ent.Name(), name)
		}
		s.kbs[name] = &kbEntry{name: name, source: prog.Source(), eng: symbol.NewEngine(prog)}
		s.names = append(s.names, name)
		s.cfg.Logf("serve: snapshot %s: kb %s loaded in %.2fms", ent.Name(), name, msSince(start))
	}
	return nil
}

// msSince is time since start in milliseconds, for load-time log lines.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// engines lists every live engine (preloaded KBs plus cached query
// engines), for metrics merging and the pressure monitor.
func (s *Server) engines() []*symbol.Engine {
	var out []*symbol.Engine
	for _, name := range s.names {
		if e := s.kbs[name].eng; e != nil {
			out = append(out, e)
		}
	}
	return append(out, s.cache.engines()...)
}

// Metrics snapshots the server-side counters (queue, sheds, drain state).
func (s *Server) Metrics() obs.ServerSnapshot { return s.met.Snapshot() }

// EngineMetrics merges every live engine's snapshot into one, plus the
// retained final snapshots of engines the query cache has evicted — so the
// merged view is monotone over the server's lifetime even as the LRU
// churns.
func (s *Server) EngineMetrics() obs.Snapshot {
	// The cache view is read under one lock so eviction cannot move an
	// engine's history between the retired accumulator and the live list
	// mid-read; the per-KB engines are never evicted, so merging them
	// afterwards stays monotone.
	merged := s.cache.mergedMetrics()
	for _, name := range s.names {
		if e := s.kbs[name].eng; e != nil {
			merged.Merge(e.Metrics())
		}
	}
	return merged
}

// PublishExpvar registers each preloaded KB engine as <prefix>_<kb> and the
// server counters as <prefix> on /debug/vars. Conflicts are logged, never
// fatal (engine publication is idempotent per engine).
func (s *Server) PublishExpvar(prefix string) {
	if v := expvar.Get(prefix); v == nil {
		expvar.Publish(prefix, expvar.Func(func() any { return s.met.Snapshot() }))
	} else {
		s.cfg.Logf("serve: expvar name %q already registered, skipping server vars", prefix)
	}
	for _, name := range s.names {
		if e := s.kbs[name].eng; e != nil {
			if err := e.PublishExpvar(prefix + "_" + name); err != nil {
				s.cfg.Logf("serve: %v", err)
			}
		}
	}
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain stops admitting new queries: every subsequent request sheds
// with 503 + Retry-After. Idempotent; in-flight queries keep running.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.met.SetDraining(true)
		s.cfg.Logf("serve: draining — admissions stopped")
	}
}

// Drain gracefully winds the server down: stop admissions, wait for
// in-flight queries to finish, and when ctx expires first hard-cancel the
// stragglers (they terminate as typed fault.Canceled and still get
// responses). It returns once every admitted request has been answered and
// the engines are idle; a non-nil error means stragglers survived even the
// hard cancel.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := s.flight.beginDrain()
	select {
	case <-done:
	case <-ctx.Done():
		s.cfg.Logf("serve: drain deadline — hard-cancelling in-flight queries")
		s.drainCancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return errors.New("serve: drain: queries still in flight after hard cancel")
		}
	}
	// Parked cursors hold engine in-flight slots and machine states; close
	// them now that no request is mid-page, or WaitIdle below never
	// returns. (Resumes in progress were either counted by the flight
	// tracker and have settled, or shed at the draining gate.)
	s.cursors.closeAll()
	// Engines idle ⇒ final metrics are exact and no executor is mid-run.
	idleCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, e := range s.engines() {
		if err := e.WaitIdle(idleCtx); err != nil {
			return fmt.Errorf("serve: drain: engine not idle: %w", err)
		}
	}
	s.cfg.Logf("serve: drained")
	return nil
}

// Close hard-cancels everything immediately (tests and last-resort paths).
func (s *Server) Close() error {
	s.BeginDrain()
	s.drainCancel()
	s.cursors.closeAll()
	return nil
}

// Response is the JSON body of /run and /query answers. OK distinguishes a
// proven goal from a clean "no" — both are 200s; errors carry the fault
// kind (stable fault.Kind string) and a message.
//
// Paginated queries (?limit=N) answer with Solutions instead of Output:
// one entry per solution in this page, More reporting whether backtracking
// may yield further answers, and (when More) an opaque single-use Cursor
// for the next page. A More response without a Cursor means the stream
// could not be parked (the server began draining); re-issue the query
// against another replica.
type Response struct {
	OK     bool   `json:"ok"`
	KB     string `json:"kb,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Output string `json:"output,omitempty"`
	Steps  int64  `json:"steps,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
	Fault  string `json:"fault,omitempty"`
	Error  string `json:"error,omitempty"`

	Solutions []Solution `json:"solutions,omitempty"`
	More      bool       `json:"more,omitempty"`
	Cursor    string     `json:"cursor,omitempty"`
}

// Solution is one streamed answer of a paginated query. Steps is the
// stream's cumulative step count when this solution was produced (budgets
// span the whole stream, so the last entry is the total so far).
type Solution struct {
	Output string `json:"output"`
	Steps  int64  `json:"steps"`
}

// ShedReasonHeader carries the obs.ShedReason name on shed responses.
const ShedReasonHeader = "X-Symbol-Shed-Reason"

func (s *Server) writeJSON(w http.ResponseWriter, status int, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
	s.met.RecordStatus(status)
}

// shed refuses the request before execution: Retry-After plus the reason,
// as a typed header and in the body.
func (s *Server) shed(w http.ResponseWriter, status int, reason obs.ShedReason) {
	s.met.RecordShed(reason)
	w.Header().Set("Retry-After", retryAfter)
	w.Header().Set(ShedReasonHeader, reason.String())
	s.writeJSON(w, status, Response{Error: "overloaded: " + reason.String()})
}

// protect is the panic-isolation middleware: a panicking handler answers
// 500 (best-effort) and the process keeps serving.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.RecordPanic()
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.writeJSON(w, http.StatusInternalServerError, Response{Error: "internal error"})
			}
		}()
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.mon.overloadedNow():
		http.Error(w, fmt.Sprintf("overloaded: window p99 %v", s.mon.p99()), http.StatusServiceUnavailable)
	case s.gate.depth() >= int64(s.cfg.MaxQueue):
		http.Error(w, "overloaded: admission queue full", http.StatusServiceUnavailable)
	default:
		io.WriteString(w, "ready\n")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if name := r.URL.Query().Get("kb"); name != "" {
		kb, ok := s.kbs[name]
		if !ok || kb.eng == nil {
			http.Error(w, "unknown or query-only kb", http.StatusNotFound)
			return
		}
		kb.eng.Metrics().WriteTo(w)
		return
	}
	s.EngineMetrics().WriteTo(w)
	s.met.Snapshot().WriteTo(w)
}

func (s *Server) handleKBs(w http.ResponseWriter, r *http.Request) {
	type kbInfo struct {
		Name     string `json:"name"`
		Runnable bool   `json:"runnable"` // has a compiled main/0 for /run
		RunError string `json:"run_error,omitempty"`
	}
	out := make([]kbInfo, 0, len(s.names))
	for _, name := range s.names {
		kb := s.kbs[name]
		info := kbInfo{Name: name, Runnable: kb.eng != nil}
		if kb.runErr != nil {
			info.RunError = kb.runErr.Error()
		}
		out = append(out, info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
	s.met.RecordStatus(http.StatusOK)
}

// handleRun answers the KB's own main/0 on its preloaded, pooled engine —
// the hot serving path.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	kb, ok := s.kbs[r.PathValue("kb")]
	if !ok {
		s.writeJSON(w, http.StatusNotFound, Response{Error: "unknown kb"})
		return
	}
	if kb.eng == nil {
		s.writeJSON(w, http.StatusBadRequest, Response{
			KB: kb.name, Error: fmt.Sprintf("kb is not runnable: %v", kb.runErr),
		})
		return
	}
	s.serveQuery(w, r, kb.name, func() (*symbol.Engine, func(), error) { return kb.eng, func() {}, nil })
}

// handleQuery compiles an arbitrary goal against the KB (through the LRU of
// compiled query engines) and answers it: the first solution by default, a
// page of solutions with ?limit=N (plus a resume cursor while more remain),
// and the next page of a parked stream with ?cursor=....
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	kb, ok := s.kbs[r.PathValue("kb")]
	if !ok {
		s.writeJSON(w, http.StatusNotFound, Response{Error: "unknown kb"})
		return
	}
	if cursor := r.URL.Query().Get("cursor"); cursor != "" {
		s.resumeQuery(w, r, kb.name, cursor)
		return
	}
	goal := r.URL.Query().Get("q")
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			s.writeJSON(w, http.StatusRequestEntityTooLarge, Response{KB: kb.name, Error: "query body too large"})
			return
		}
		if b := strings.TrimSpace(string(body)); b != "" {
			goal = b
		}
	}
	if strings.TrimSpace(goal) == "" {
		s.writeJSON(w, http.StatusBadRequest, Response{KB: kb.name, Error: "empty query (POST a goal, or use ?q=)"})
		return
	}
	if ls := r.URL.Query().Get("limit"); ls != "" {
		limit, err := strconv.Atoi(ls)
		if err != nil || limit <= 0 {
			s.writeJSON(w, http.StatusBadRequest, Response{KB: kb.name, Error: "limit must be a positive integer"})
			return
		}
		s.servePaged(w, r, kb.name, limit, func() (*symbol.Engine, error) {
			return s.cache.get(kb.name, kb.source, goal)
		})
		return
	}
	// Single-shot queries pin their cache entry for the handler's lifetime:
	// a coalesced request parks for a batching window before its run starts,
	// and eviction retiring the engine's metrics in that window would lose
	// the run from the merged view.
	s.serveQuery(w, r, kb.name, func() (*symbol.Engine, func(), error) {
		return s.cache.getPinned(kb.name, kb.source, goal)
	})
}

// admission is what admit hands a handler that made it past every gate:
// the request's budget envelope and the admission-slot release, which the
// handler must arrange to be called exactly once (immediately for
// single-shot queries; when the session closes for paginated ones).
type admission struct {
	tenant  Tenant
	opts    symbol.RunOptions
	timeout time.Duration
	release func()
}

// admit runs the shared request preamble — tenant resolution, budget, the
// drain/pressure/queue gates, and in-flight registration — writing the
// refusal response itself when a gate rejects. On true the caller holds an
// execution slot (adm.release) and a flight-tracker registration (balance
// with s.flight.exit()).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, kbName string) (adm admission, ok bool) {
	tenant, err := s.tenantOf(r)
	if err != nil {
		var bad *badRequestError
		errors.As(err, &bad)
		s.writeJSON(w, bad.status, Response{KB: kbName, Error: bad.msg})
		return
	}
	opts, timeout, err := s.budget(r, tenant)
	if err != nil {
		var bad *badRequestError
		errors.As(err, &bad)
		s.writeJSON(w, bad.status, Response{KB: kbName, Tenant: tenant.Name, Error: bad.msg})
		return
	}

	// Admission: drain gate, pressure gate, then the bounded queue.
	if s.draining.Load() {
		s.shed(w, http.StatusServiceUnavailable, obs.ShedDraining)
		return
	}
	if s.mon.overloadedNow() {
		s.shed(w, http.StatusServiceUnavailable, obs.ShedPressure)
		return
	}
	// Tenant quota sits above the global gate: a tenant already running its
	// full provision sheds here, before it can consume queue or execution
	// capacity other tenants are entitled to.
	relQuota, quotaOK := s.quotas.tryAcquire(tenant.Name)
	if !quotaOK {
		s.shed(w, http.StatusTooManyRequests, obs.ShedTenantQuota)
		return
	}
	release, err := s.gate.acquire(r.Context(), s.cfg.QueueTimeout)
	if err != nil {
		relQuota()
		switch {
		case errors.Is(err, errQueueFull):
			s.shed(w, http.StatusTooManyRequests, obs.ShedQueueFull)
		case errors.Is(err, errQueueTimeout):
			s.shed(w, http.StatusTooManyRequests, obs.ShedQueueTimeout)
		default: // client gave up while queued
			s.met.RecordClientGone()
			s.writeJSON(w, StatusClientClosed, Response{KB: kbName, Error: "client closed request"})
		}
		return
	}
	// Registering with the in-flight tracker re-checks drain under its
	// lock: a request admitted at the instant draining begins sheds here
	// instead of slipping past the drain wait.
	if !s.flight.enter() {
		release()
		relQuota()
		s.shed(w, http.StatusServiceUnavailable, obs.ShedDraining)
		return
	}
	rel := func() {
		release()
		relQuota()
	}
	return admission{tenant: tenant, opts: opts, timeout: timeout, release: rel}, true
}

// serveQuery is the admission → budget → run → respond state machine shared
// by /run and single-solution /query.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, kbName string, getEngine func() (*symbol.Engine, func(), error)) {
	adm, ok := s.admit(w, r, kbName)
	if !ok {
		return
	}
	defer func() {
		adm.release()
		s.flight.exit()
	}()

	eng, unpin, err := getEngine()
	defer unpin()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, Response{KB: kbName, Tenant: adm.tenant.Name, Error: err.Error()})
		return
	}

	// Park in the engine's batch and wait for the shared run's answer. The
	// wall budget travels in the run options (so a timeout is the typed
	// fault.Deadline), and drain hard-cancel reaches the run through the
	// batch context, so writeRunError needs no run context of its own.
	res, err := s.batch.submit(r.Context(), eng, adm.opts, adm.timeout)
	if err != nil {
		s.writeRunError(w, r, context.Background(), kbName, adm.tenant.Name, err)
		return
	}
	s.writeJSON(w, http.StatusOK, Response{
		OK:     res.Succeeded,
		KB:     kbName,
		Tenant: adm.tenant.Name,
		Output: res.Output,
		Steps:  res.Steps,
		WallNS: int64(res.Stats.Wall),
	})
}

// servePaged answers the first page of a paginated query: admit, start a
// Solutions stream, collect up to limit solutions within the request's
// wall budget, and either finish the stream or park it behind a cursor.
// The admission slot is not released on return — a parked stream keeps
// holding it (suspended runs count against in-flight admission) until the
// stream finishes, its cursor expires, or drain sweeps it.
func (s *Server) servePaged(w http.ResponseWriter, r *http.Request, kbName string, limit int, getEngine func() (*symbol.Engine, error)) {
	adm, ok := s.admit(w, r, kbName)
	if !ok {
		return
	}
	defer s.flight.exit()

	eng, err := getEngine()
	if err != nil {
		adm.release()
		s.writeJSON(w, http.StatusBadRequest, Response{KB: kbName, Tenant: adm.tenant.Name, Error: err.Error()})
		return
	}

	// The stream outlives this request, so it runs under a session-lifetime
	// context rather than r.Context() (which dies with this response):
	// cancelled when the session closes and, via AfterFunc, by hard drain —
	// which aborts any in-progress page as typed fault.Canceled.
	sctx, scancel := context.WithCancel(context.Background())
	stopDrain := context.AfterFunc(s.drainCtx, scancel)
	sols, err := eng.Query(sctx, adm.opts)
	if err != nil {
		scancel()
		stopDrain()
		adm.release()
		s.writeJSON(w, http.StatusBadRequest, Response{KB: kbName, Tenant: adm.tenant.Name, Error: err.Error()})
		return
	}
	sess := &cursorSession{
		kb:        kbName,
		tenant:    adm.tenant.Name,
		timeout:   adm.timeout,
		limit:     limit,
		ctx:       sctx,
		cancel:    scancel,
		stopDrain: stopDrain,
		sols:      sols,
		release:   adm.release,
	}
	s.servePage(w, r, sess, limit)
}

// resumeQuery continues a parked paginated stream. The cursor is
// single-use: claiming it removes the session from the table (so two
// clients can never drive the same suspended machine), and a page that
// leaves more solutions parks the session again under a fresh cursor.
// Resumes skip the pressure and queue gates — the session has held its
// execution slot since its first page — but respect the drain gate.
func (s *Server) resumeQuery(w http.ResponseWriter, r *http.Request, kbName, cursor string) {
	if s.draining.Load() {
		s.shed(w, http.StatusServiceUnavailable, obs.ShedDraining)
		return
	}
	sess, ok := s.cursors.take(cursor)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, Response{KB: kbName, Error: "unknown, expired, or already-claimed cursor"})
		return
	}
	if sess.kb != kbName {
		// Wrong kb in the path. Repark under the same cursor so the typo
		// does not burn the stream.
		if !s.cursors.putBack(sess) {
			sess.close()
		}
		s.writeJSON(w, http.StatusNotFound, Response{KB: kbName, Error: "cursor does not belong to this kb"})
		return
	}
	limit := sess.limit
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			if !s.cursors.putBack(sess) {
				sess.close()
			}
			s.writeJSON(w, http.StatusBadRequest, Response{KB: kbName, Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	if !s.flight.enter() {
		// Draining began after the gate check above; the drain sweep cannot
		// see a claimed session, so close it here and shed.
		sess.close()
		s.shed(w, http.StatusServiceUnavailable, obs.ShedDraining)
		return
	}
	defer s.flight.exit()
	s.servePage(w, r, sess, limit)
}

// servePage drives one page of sess's stream within the request's wall
// budget, then parks the session (issuing the next cursor) or finishes it,
// and writes the page response. The caller holds a flight-tracker
// registration; sess is claimed (not in the cursor table).
func (s *Server) servePage(w http.ResponseWriter, r *http.Request, sess *cursorSession, limit int) {
	// Page-scoped abort conditions: the request's wall budget and the
	// client connection, plus the session context so a hard drain
	// cancels a page in progress. Any of them firing mid-page kills the
	// stream (a machine cancelled mid-backtrack cannot be resumed), which
	// is the safe reading of "the budget ran out".
	pageCtx, pageCancel := context.WithTimeout(r.Context(), sess.timeout)
	defer pageCancel()
	stop := context.AfterFunc(sess.ctx, pageCancel)
	defer stop()
	sess.sols.Attach(pageCtx)

	var page []Solution
	var wall int64
	for len(page) < limit && sess.sols.Next() {
		res := sess.sols.Result()
		page = append(page, Solution{Output: res.Output, Steps: res.Steps})
		wall = int64(res.Stats.Wall)
	}
	if err := sess.sols.Err(); err != nil {
		sess.close()
		s.writeRunError(w, r, pageCtx, sess.kb, sess.tenant, err)
		return
	}
	resp := Response{
		OK:        len(page) > 0,
		KB:        sess.kb,
		Tenant:    sess.tenant,
		Solutions: page,
		WallNS:    wall,
	}
	if n := len(page); n > 0 {
		resp.Steps = page[n-1].Steps
	}
	if sess.sols.More() {
		resp.More = true
		if id, parked := s.cursors.park(sess); parked {
			resp.Cursor = id
		} else {
			// Drain closed the cursor table while this page ran: the stream
			// cannot be parked. Deliver the page without a cursor; the
			// client re-issues the query against another replica.
			sess.close()
		}
	} else {
		sess.close()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeRunError maps a run error onto its typed HTTP response. Canceled is
// refined by cause: a drain cancellation answers 503 + Retry-After (retry
// another replica), a request timeout is the deadline fault's 504, a client
// disconnect is recorded as 499.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, runCtx context.Context, kbName, tenant string, err error) {
	k := fault.KindOf(err)
	status := StatusOf(k)
	if k == fault.Canceled {
		switch {
		case s.drainCtx.Err() != nil:
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", retryAfter)
		case r.Context().Err() != nil:
			s.met.RecordClientGone()
			status = StatusClientClosed
		case errors.Is(runCtx.Err(), context.DeadlineExceeded):
			// The timeout timer cancelled the context before the executor's
			// own deadline poll noticed: same budget, same answer.
			k = fault.Deadline
			status = StatusOf(fault.Deadline)
		}
	}
	resp := Response{KB: kbName, Tenant: tenant, Error: err.Error()}
	if k != fault.None {
		resp.Fault = k.String()
	}
	s.writeJSON(w, status, resp)
}
