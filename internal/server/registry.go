package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"time"

	"blog"
)

// ErrSessionLimit is returned when the registry is full.
var ErrSessionLimit = errors.New("server: session limit reached")

// ErrNoSession is returned for an unknown or already-ended session id.
var ErrNoSession = errors.New("server: no such session")

// sessionEntry is one live learning session owned by the server.
type sessionEntry struct {
	id      string
	alpha   float64
	created time.Time
	s       *blog.Session

	// lastUsed and refs are guarded by the registry mutex. refs counts
	// in-flight queries, so an End (explicit, eviction, or shutdown)
	// merges only after every query using the session has finished —
	// no learned chain is silently dropped by a concurrent DELETE.
	lastUsed time.Time
	refs     int
}

// registry owns the server's live sessions: the section-5 "succession of
// queries with no permanent updating" becomes a first-class server object
// that HTTP clients create, query within, and end. Sessions idle past ttl
// are evicted lazily (their weights still merge), so abandoned clients
// cannot pin the registry at its limit forever.
type registry struct {
	limit int
	ttl   time.Duration // <= 0 disables idle eviction

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when an entry's refs drops to 0
	sessions map[string]*sessionEntry
}

func newRegistry(limit int, ttl time.Duration) *registry {
	if limit <= 0 {
		limit = 1024
	}
	r := &registry{limit: limit, ttl: ttl, sessions: make(map[string]*sessionEntry)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// create opens a session on p, evicting idle sessions first. alpha 0
// takes the blog default (0.5). The caller merges the evicted sessions
// (waitIdle then Session.End).
func (r *registry) create(p *blog.Program, alpha float64) (*sessionEntry, []*sessionEntry, error) {
	if alpha <= 0 {
		alpha = 0.5
	}
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, nil, err
	}
	now := time.Now()
	e := &sessionEntry{
		id:       "s-" + hex.EncodeToString(raw[:]),
		alpha:    alpha,
		created:  now,
		lastUsed: now,
		s:        p.NewSession(alpha),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted := r.evictIdleLocked(now)
	if len(r.sessions) >= r.limit {
		return nil, evicted, ErrSessionLimit
	}
	r.sessions[e.id] = e
	return e, evicted, nil
}

// sweep evicts idle sessions outside of create (list handlers, gauges).
// The caller merges the returned entries.
func (r *registry) sweep() []*sessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictIdleLocked(time.Now())
}

// evictIdleLocked removes sessions idle past ttl; caller holds r.mu and
// must End the returned entries after waitIdle. Entries with queries in
// flight are in use by definition and stay.
func (r *registry) evictIdleLocked(now time.Time) []*sessionEntry {
	if r.ttl <= 0 {
		return nil
	}
	var evicted []*sessionEntry
	for id, e := range r.sessions {
		if e.refs == 0 && now.Sub(e.lastUsed) > r.ttl {
			delete(r.sessions, id)
			evicted = append(evicted, e)
		}
	}
	return evicted
}

// acquire returns the live session with the given id, refreshing its idle
// clock and holding a query reference. Every nil-error return must be
// paired with one release.
func (r *registry) acquire(id string) (*sessionEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.sessions[id]
	if !ok {
		return nil, ErrNoSession
	}
	e.lastUsed = time.Now()
	e.refs++
	return e, nil
}

// release drops a query reference taken by acquire.
func (r *registry) release(e *sessionEntry) {
	r.mu.Lock()
	e.lastUsed = time.Now()
	e.refs--
	if e.refs == 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// waitIdle blocks until no query holds a reference to e. Bounded in
// practice by the per-query timeout.
func (r *registry) waitIdle(e *sessionEntry) {
	r.mu.Lock()
	for e.refs > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// remove takes the session out of the registry; the caller then calls
// waitIdle and merges it with Session.End.
func (r *registry) remove(id string) (*sessionEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.sessions[id]
	if !ok {
		return nil, ErrNoSession
	}
	delete(r.sessions, id)
	return e, nil
}

// drain removes every session (shutdown); the caller waits and merges.
func (r *registry) drain() []*sessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*sessionEntry, 0, len(r.sessions))
	for id, e := range r.sessions {
		delete(r.sessions, id)
		out = append(out, e)
	}
	return out
}

// list snapshots the live sessions, oldest first.
func (r *registry) list() []*sessionEntry {
	r.mu.Lock()
	out := make([]*sessionEntry, 0, len(r.sessions))
	for _, e := range r.sessions {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].created.Equal(out[j].created) {
			return out[i].id < out[j].id
		}
		return out[i].created.Before(out[j].created)
	})
	return out
}

// len returns the number of live sessions.
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// info renders the wire description of a session.
func (e *sessionEntry) info() SessionInfo {
	q, s, f := e.s.Counts()
	return SessionInfo{
		ID:           e.id,
		Alpha:        e.alpha,
		CreatedAt:    e.created.UTC().Format(time.RFC3339),
		Queries:      q,
		Successes:    s,
		Failures:     f,
		LocalLearned: e.s.LocalLearned(),
	}
}
