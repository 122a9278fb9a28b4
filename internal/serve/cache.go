package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symbol"
	"symbol/internal/obs"
)

// engineCache is a small LRU of compiled query engines keyed by
// (knowledge base, goal). Serving traffic repeats queries — dashboards
// refresh, load tests hammer one goal — so the common case skips the
// Prolog → BAM → ICI compile entirely and lands on a warm Engine whose
// predecoded streams are already built. Each entry compiles at most
// once, under a per-entry sync.Once, so a burst of identical cold queries
// does one compile while the rest wait for its result.
//
// Evicting an entry must not make the server's merged metrics go
// backwards: the pressure monitor subtracts consecutive merged snapshots,
// and a vanished engine would subtract its whole history from the next
// window, producing garbage quantiles. So eviction retires the engine's
// final snapshot into an accumulator that stays merged into every future
// read (see retired).
//
// Capacity is bounded by entry count (QueryCache); pinned entries are never
// evicted (see cacheEntry.pins).
type engineCache struct {
	mu      sync.Mutex
	cap     int
	negTTL  time.Duration
	entries map[string]*list.Element
	lru     list.List // front = most recent; values are *cacheEntry

	// retired accumulates the final Metrics snapshot of every evicted
	// engine, so the merged view (live engines + retired) is monotone even
	// as the LRU churns. InFlight is zeroed on retirement: a run still
	// executing on an evicted engine finishes invisibly, and a permanent
	// phantom in-flight count would be worse than the small undercount.
	retired      obs.Snapshot
	retiredCount int64

	// warm holds pre-built query snapshots keyed by source hash + goal
	// (see warmKey): a cold cache entry for a warmed (kb, goal) loads its
	// snapshot — ICI code, atom table, predecoded streams — instead of
	// compiling from scratch. The map stores bytes, not engines, so a
	// warmed goal that is never asked costs its snapshot's size and
	// nothing else, and eviction/metrics invariants of the LRU are
	// untouched: the warm tier only changes how an entry's engine is
	// born. Written only at boot (addWarm), read under warmMu thereafter.
	warmMu sync.RWMutex
	warm   map[string][]byte
}

// warmKey addresses the warm tier by content, not KB name: the hash of
// the knowledge-base source plus the normalized goal ("?-" and surrounding
// space stripped, matching what a query snapshot records as its Goal). A
// renamed KB with identical source still hits its warmed queries.
func warmKey(kbSrc, goal string) string {
	h := sha256.Sum256([]byte(kbSrc))
	goal = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(goal), "?-"))
	return string(h[:]) + "\x00" + goal
}

// addWarm registers a query snapshot for (kbSrc, goal). Boot-time only.
func (c *engineCache) addWarm(kbSrc, goal string, snap []byte) {
	c.warmMu.Lock()
	if c.warm == nil {
		c.warm = map[string][]byte{}
	}
	c.warm[warmKey(kbSrc, goal)] = snap
	c.warmMu.Unlock()
}

// lookupWarm returns the warmed snapshot for (kbSrc, goal), nil if none.
func (c *engineCache) lookupWarm(kbSrc, goal string) []byte {
	c.warmMu.RLock()
	snap := c.warm[warmKey(kbSrc, goal)]
	c.warmMu.RUnlock()
	return snap
}

type cacheEntry struct {
	key  string
	once sync.Once
	// eng is atomic because engines() enumerates entries concurrently with
	// a first-use compile publishing the pointer.
	eng atomic.Pointer[symbol.Engine]
	err error
	// failedAt is the unix-nano time the compile failed, published (after
	// err, release via the Store) for the TTL check in get. 0 while the
	// compile is running or after it succeeded.
	failedAt atomic.Int64
	// pins counts requests currently using this entry's engine (guarded by
	// the cache mutex). Eviction skips pinned entries: retiring an
	// engine's metrics snapshot while requests are still parked on it —
	// the coalescer holds members for a batching window before their runs
	// start — would lose those runs from the server's merged, monotone
	// view. The pin is taken inside the cache lock at lookup, so there is
	// no window between handing out the engine and protecting it.
	pins int
}

func newEngineCache(capacity int, negTTL time.Duration) *engineCache {
	return &engineCache{cap: capacity, negTTL: negTTL, entries: map[string]*list.Element{}}
}

// get returns the engine for (kb, goal), compiling it on first use. A goal
// that fails to compile is cached too (negative caching), so a client
// retrying a bad query in a loop costs a map hit, not a recompile — but
// only for negTTL: compile errors can be transient (a KB hot-reloaded
// mid-edit, a resource-shaped fault), so after the TTL the entry is
// replaced with a fresh one and the next request retries the compile. The
// replacement carries a fresh sync.Once, so the retry keeps the
// one-compile-per-burst guarantee.
func (c *engineCache) get(kbName, kbSrc, goal string) (*symbol.Engine, error) {
	eng, unpin, err := c.getPinned(kbName, kbSrc, goal)
	unpin()
	return eng, err
}

// getPinned is get plus a pin on the entry for the caller's lifetime: the
// engine cannot be evicted (its metrics cannot be retired) until the
// returned unpin runs. Callers that park the engine in the coalescer hold
// the pin until their run's outcome has been recorded on the engine, which
// keeps the server's merged metrics complete. unpin is never nil and must
// be called exactly once.
func (c *engineCache) getPinned(kbName, kbSrc, goal string) (*symbol.Engine, func(), error) {
	key := kbName + "\x00" + goal
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*cacheEntry)
		if fa := e.failedAt.Load(); fa > 0 && c.negTTL > 0 && time.Since(time.Unix(0, fa)) >= c.negTTL {
			// Expired negative entry: swap in a fresh entry in place (same
			// LRU position) and let this request redo the compile.
			el.Value = &cacheEntry{key: key}
		}
		c.lru.MoveToFront(el)
	} else {
		el = c.lru.PushFront(&cacheEntry{key: key})
		c.entries[key] = el
	}
	e := el.Value.(*cacheEntry)
	e.pins++
	c.evictLocked()
	c.mu.Unlock()

	e.once.Do(func() {
		// Snapshot-warmed fast path: a pre-built query snapshot for this
		// (source, goal) skips parse/compile/predecode entirely. A corrupt
		// warm snapshot falls through to the normal compile — warming is an
		// optimization, never a new failure mode.
		if snap := c.lookupWarm(kbSrc, goal); snap != nil {
			if prog, err := symbol.Load(context.Background(), snap); err == nil {
				e.eng.Store(symbol.NewEngine(prog))
				return
			}
		}
		prog, err := symbol.Load(context.Background(), []byte(kbSrc), symbol.WithGoal(goal))
		if err != nil {
			e.err = err
			e.failedAt.Store(time.Now().UnixNano())
			return
		}
		e.eng.Store(symbol.NewEngine(prog))
	})
	unpin := func() {
		c.mu.Lock()
		if e.pins--; e.pins < 0 {
			e.pins = 0
		}
		c.evictLocked()
		c.mu.Unlock()
	}
	return e.eng.Load(), unpin, e.err
}

// evictLocked trims the LRU tail while the entry count is past cap.
// Pinned engines are skipped; when only pinned entries remain the cap is
// temporarily exceeded and the next get or unpin retries. Called with c.mu
// held.
func (c *engineCache) evictLocked() {
	for c.lru.Len() > c.cap {
		evicted := false
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			old := el.Value.(*cacheEntry)
			if old.pins > 0 {
				continue
			}
			c.lru.Remove(el)
			delete(c.entries, old.key)
			if e := old.eng.Load(); e != nil {
				snap := e.Metrics()
				snap.InFlight = 0
				c.retired.Merge(snap)
				c.retiredCount++
			}
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// engines lists every compiled engine currently cached, for metrics
// merging and the pressure monitor.
func (c *engineCache) engines() []*symbol.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*symbol.Engine
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry).eng.Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// retiredSnapshot deep-copies the accumulated metrics of evicted engines.
func (c *engineCache) retiredSnapshot() obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out obs.Snapshot
	out.Merge(c.retired)
	return out
}

// mergedMetrics returns retired history + every live cached engine in one
// snapshot, read under the same lock eviction retires under. The single
// critical section is what makes consecutive reads monotone: an engine is
// observed either live or via its final retired snapshot, never in the gap
// between the two (reading them in separate locked sections lets an
// eviction slip between the reads and an engine's whole history vanish
// from — or be double-counted in — one merged view).
func (c *engineCache) mergedMetrics() obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out obs.Snapshot
	out.Merge(c.retired)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry).eng.Load(); e != nil {
			out.Merge(e.Metrics())
		}
	}
	return out
}

// len reports the number of cached entries (for tests).
func (c *engineCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
