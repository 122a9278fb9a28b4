// Command symbolserve is the fault-tolerant HTTP front end over the SYMBOL
// engine: it preloads knowledge bases (files and/or the embedded benchmark
// suite) and serves their queries through internal/serve — admission
// control, load shedding, per-tenant budgets, typed fault mapping, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	symbolserve -addr :8080 -bench            # serve the embedded suite
//	symbolserve -addr :8080 kb1.pl kb2.sym    # serve Prolog files and/or snapshots
//	symbolserve -snapshot-dir ./snaps         # preload a directory of .sym snapshots
//	symbolserve -bench -tenants tenants.json  # named budget envelopes
//
// Snapshot files (symbolc -o) load in one validated read — no parsing, no
// compilation — so a server fronting many KBs is ready in milliseconds;
// per-file load times are logged at boot. Query-kind snapshots in
// -snapshot-dir pre-warm the compiled-query cache instead of becoming KBs.
//
// Endpoints:
//
//	GET  /healthz           liveness (503 while draining)
//	GET  /readyz            readiness (503 while draining or overloaded)
//	GET  /metrics           Prometheus text (engine + server families)
//	GET  /kbs               loaded knowledge bases, JSON
//	GET  /run/{kb}          run the KB's own main/0
//	GET  /query/{kb}?q=...  answer an arbitrary goal (or POST the goal)
//	GET  /debug/vars        expvar JSON
//
// Adding limit=N to /query streams up to N solutions per page; a response
// with more solutions left carries an opaque cursor, and
// /query/{kb}?cursor=... resumes the suspended stream where it left off.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "symbolserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		bench       = flag.Bool("bench", false, "serve the embedded benchmark suite as knowledge bases")
		maxInFlight = flag.Int("max-inflight", 0, "concurrently executing queries (0 = GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "admission queue depth (0 = 4x max-inflight)")
		queueWait   = flag.Duration("queue-timeout", 0, "max admission wait (0 = 1s)")
		reqTimeout  = flag.Duration("timeout", 0, "default per-query wall budget (0 = 5s)")
		drain       = flag.Duration("drain-timeout", 0, "graceful-drain deadline on shutdown (0 = 10s)")
		shedP99     = flag.Duration("shed-p99", 0, "shed while windowed p99 exceeds this (0 = off)")
		maxSteps    = flag.Int64("max-steps", 0, "default per-query step budget (0 = engine default)")
		tenantsPath = flag.String("tenants", "", "JSON file of named tenant budget envelopes")
		cursorTTL   = flag.Duration("cursor-ttl", 0, "idle lifetime of a paginated query's resume cursor (0 = 30s)")
		negTTL      = flag.Duration("neg-cache-ttl", 0, "how long a failed query compile stays cached (0 = 5s)")
		dispatch    = flag.String("dispatch", "", "execution core for every query: legacy, nofuse, fused (default auto)")
		batchWindow = flag.Duration("batch-window", 0, "request-coalescing window (0 = 2ms)")
		maxBatch    = flag.Int("max-batch", 0, "max requests per coalesced batch (0 = max-inflight)")
		noBatch     = flag.Bool("no-batch", false, "disable request coalescing")
		cacheBudget = flag.Int64("cache-budget-mb", 0, "query-engine cache budget in MiB of estimated resident bytes (0 = 2048)")
		snapDir     = flag.String("snapshot-dir", "", "directory of .sym snapshots preloaded at boot (program snapshots become KBs, query snapshots pre-warm the query cache)")
	)
	flag.Parse()

	disp, err := symbol.ParseDispatch(*dispatch)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		QueueTimeout:     *queueWait,
		RequestTimeout:   *reqTimeout,
		DrainTimeout:     *drain,
		ShedP99:          *shedP99,
		CursorTTL:        *cursorTTL,
		NegCacheTTL:      *negTTL,
		Dispatch:         disp,
		BatchWindow:      *batchWindow,
		MaxBatch:         *maxBatch,
		DisableBatching:  *noBatch,
		CacheBudgetBytes: *cacheBudget << 20,
		SnapshotDir:      *snapDir,
		DefaultTenant:    serve.Tenant{MaxSteps: *maxSteps},
		Logf:             log.Printf,
	}
	if *tenantsPath != "" {
		data, err := os.ReadFile(*tenantsPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &cfg.Tenants); err != nil {
			return fmt.Errorf("tenants %s: %w", *tenantsPath, err)
		}
	}

	var kbs []serve.KB
	if *bench {
		for _, b := range benchprog.All() {
			kbs = append(kbs, serve.KB{Name: b.Name, Source: b.Source})
		}
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if symbol.IsSnapshot(src) {
			kbs = append(kbs, serve.KB{Name: name, Snapshot: src})
		} else {
			kbs = append(kbs, serve.KB{Name: name, Source: string(src)})
		}
	}
	if len(kbs) == 0 && *snapDir == "" {
		return errors.New("no knowledge bases: pass -bench, Prolog/.sym files, and/or -snapshot-dir")
	}

	s, err := serve.New(cfg, kbs...)
	if err != nil {
		return err
	}
	s.PublishExpvar("symbolserve")
	log.Printf("symbolserve: %d knowledge bases loaded, listening on %s", len(s.KBNames()), *addr)

	httpSrv := &http.Server{Addr: *addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("symbolserve: %v — draining", sig)
	}

	// Shed new work first, then close the listener, then wind down
	// in-flight queries: hard-cancelled stragglers still get responses
	// before the HTTP server finishes its own shutdown.
	s.BeginDrain()
	deadline := cfg.DrainTimeout
	if deadline <= 0 {
		deadline = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	drainErr := s.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("symbolserve: http shutdown: %v", err)
	}
	if drainErr != nil {
		return drainErr
	}
	log.Printf("symbolserve: drained cleanly")
	return nil
}
