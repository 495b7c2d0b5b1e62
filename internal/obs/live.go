package obs

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrKilled is the error a query cancelled through the live inspector
// (DELETE /debug/queries/{id}) reports, distinct from a client disconnect.
var ErrKilled = errors.New("query cancelled via inspector")

// Live is one in-flight query as the inspector sees it, and the context
// its run takes: it wraps the query's context (set by the caller once Add
// returns), adding the request ID, which RequestID finds through Value,
// and the kill, which Cancel records. Done, Err and every other Value are
// the wrapped context's, so a context derived from a Live registers with
// the wrapped one's cancellation directly and starts no goroutine. The
// engines store into Expanded periodically (every 1024 expansions)
// behind a nil check, so an unwatched query pays nothing and a watched one
// pays one atomic store per ~1024 dispatches.
type Live struct {
	context.Context
	ID       string
	Goal     string
	Strategy string
	Start    time.Time
	Expanded atomic.Uint64

	cancel context.CancelFunc
	killed atomic.Bool
}

// liveKey is the Value key under which a Live answers with itself.
type liveKey struct{}

// Value answers liveKey with the entry and other keys as Context does.
func (l *Live) Value(key any) any {
	if key == (liveKey{}) {
		return l
	}
	return l.Context.Value(key)
}

// Cancel records the kill, then calls the cancel function Add was given.
func (l *Live) Cancel() {
	l.killed.Store(true)
	if l.cancel != nil {
		l.cancel()
	}
}

// Killed reports whether Cancel was called.
func (l *Live) Killed() bool { return l.killed.Load() }

// Registry tracks in-flight queries for the live inspector and mints the
// request IDs the structured logs share with it.
type Registry struct {
	mu   sync.Mutex
	next uint64
	m    map[string]*Live
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Live, 16)}
}

// Add registers an in-flight query and returns its entry, with a freshly
// minted ID. cancel, which Cancel calls, may be nil for queries that
// cannot be killed.
func (r *Registry) Add(goal, strategy string, cancel context.CancelFunc) *Live {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	l := &Live{
		ID:       requestID(r.next),
		Goal:     goal,
		Strategy: strategy,
		Start:    time.Now(),
		cancel:   cancel,
	}
	r.m[l.ID] = l
	return l
}

// requestID renders n as q-%06d, its digits laid out in a stack buffer:
// boxing n for fmt would allocate once n passes the runtime's table of
// small integers.
func requestID(n uint64) string {
	var buf [22]byte
	i := len(buf)
	for ; n > 0 || i > len(buf)-6; n /= 10 {
		i--
		buf[i] = byte('0' + n%10)
	}
	i -= 2
	buf[i], buf[i+1] = 'q', '-'
	return string(buf[i:])
}

// Remove unregisters a finished query.
func (r *Registry) Remove(l *Live) {
	if l == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, l.ID)
}

// Get returns the in-flight query with the given ID, or nil.
func (r *Registry) Get(id string) *Live {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

// List returns the in-flight queries, oldest first.
func (r *Registry) List() []*Live {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Live, 0, len(r.m))
	for _, l := range r.m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RequestID returns the ID of the Live entry ctx is, or derives from, or "".
func RequestID(ctx context.Context) string {
	if l, _ := ctx.Value(liveKey{}).(*Live); l != nil {
		return l.ID
	}
	return ""
}
