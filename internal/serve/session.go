package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"symbol"
	"symbol/internal/obs"
)

// cursorSession is one suspended solution stream parked between pages of a
// paginated /query. The session owns everything the next page needs — the
// stream (whose pooled machine state is live and suspended at the last
// solution), the admission slot it was admitted under, and the budget
// envelope of the original request — plus the plumbing that ties its
// lifetime to the server's: a session context hard-cancelled by drain, and
// a TTL timer that reclaims the slot if the client never comes back.
type cursorSession struct {
	id      string
	kb      string
	tenant  string
	timeout time.Duration // per-page wall budget, from the original request
	limit   int           // default page size, from the original request

	// ctx is the session-lifetime context the stream was created under;
	// cancel fires on close and (via an AfterFunc on the server's drain
	// context) on hard drain, aborting any in-progress page as typed
	// fault.Canceled. stopDrain unhooks that AfterFunc on close.
	ctx       context.Context
	cancel    context.CancelFunc
	stopDrain func() bool

	sols    *symbol.Solutions
	release func()      // the admission slot held since the first page
	timer   *time.Timer // TTL expiry, armed while parked
}

// close tears the session down: cancel the session context, unhook the
// drain trigger, settle the stream (returning its machine state to the
// process-wide idle list), and give the admission slot back. Safe to call exactly
// once per session; the table's take/closeAll claim semantics guarantee a
// single owner.
func (sess *cursorSession) close() {
	sess.cancel()
	if sess.stopDrain != nil {
		sess.stopDrain()
	}
	sess.sols.Close()
	sess.release()
}

// cursorTable maps opaque cursor ids to parked sessions. A session is in
// the table only while idle between pages: resuming claims it (take), and
// parking after a page re-inserts it under a fresh id — so a cursor is
// single-use, two clients can never drive the same suspended machine, and
// a stale cursor (already resumed, expired, or swept by drain) fails
// cleanly instead of corrupting a stream.
type cursorTable struct {
	mu     sync.Mutex
	ttl    time.Duration
	met    *obs.ServerMetrics
	m      map[string]*cursorSession
	closed bool
}

func newCursorTable(ttl time.Duration, met *obs.ServerMetrics) *cursorTable {
	return &cursorTable{ttl: ttl, met: met, m: map[string]*cursorSession{}}
}

// newCursorID returns an unguessable opaque cursor token.
func newCursorID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: cursor id: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// park inserts sess under a fresh id and arms its TTL timer. It reports
// false when the table has been closed by drain — the caller must close
// the session itself (its solutions cannot be parked anymore).
func (t *cursorTable) park(sess *cursorSession) (string, bool) {
	id := newCursorID()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return "", false
	}
	sess.id = id
	t.m[id] = sess
	sess.timer = time.AfterFunc(t.ttl, func() { t.expire(id) })
	t.mu.Unlock()
	t.met.RecordCursorOpened()
	return id, true
}

// take claims the session parked under id, removing it from the table and
// disarming its TTL timer. Only one claimant can win; everyone else sees
// false (unknown, already resumed, expired, or drained).
func (t *cursorTable) take(id string) (*cursorSession, bool) {
	sess, ok := t.remove(id)
	if ok {
		t.met.RecordCursorClosed(false)
	}
	return sess, ok
}

func (t *cursorTable) remove(id string) (*cursorSession, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, ok := t.m[id]
	if !ok {
		return nil, false
	}
	delete(t.m, id)
	sess.timer.Stop()
	return sess, true
}

// putBack re-inserts a claimed session under its existing id with a fresh
// TTL timer — for resume paths that reject the request without touching the
// stream (wrong kb, bad limit), so the client's cursor stays valid. It
// reports false when the table has been closed by drain; the caller must
// then close the session.
func (t *cursorTable) putBack(sess *cursorSession) bool {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	t.m[sess.id] = sess
	id := sess.id
	sess.timer = time.AfterFunc(t.ttl, func() { t.expire(id) })
	t.mu.Unlock()
	// Balances the RecordCursorClosed(false) that take charged.
	t.met.RecordCursorOpened()
	return true
}

// expire is the TTL sweep for one cursor: if it is still parked, close it,
// releasing the admission slot and the pooled machine state.
func (t *cursorTable) expire(id string) {
	if sess, ok := t.remove(id); ok {
		t.met.RecordCursorClosed(true)
		sess.close()
	}
}

// closeAll claims and closes every parked session and refuses future
// parks; drain calls it after in-flight requests settle so engine WaitIdle
// can complete (a parked stream holds an engine in-flight slot).
func (t *cursorTable) closeAll() {
	t.mu.Lock()
	t.closed = true
	sessions := make([]*cursorSession, 0, len(t.m))
	for id, sess := range t.m {
		delete(t.m, id)
		sess.timer.Stop()
		sessions = append(sessions, sess)
	}
	t.mu.Unlock()
	for _, sess := range sessions {
		t.met.RecordCursorClosed(false)
		sess.close()
	}
}

// open reports the number of parked sessions (for tests).
func (t *cursorTable) open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
