package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed node of a query's span tree. The JSON shape is the
// wire schema blogd returns for `"trace": true` queries:
//
//	{"name":"query","start_us":0,"dur_us":812.4,
//	 "children":[{"name":"parse",...},{"name":"compile",...},
//	             {"name":"search","counts":{"expanded":951},
//	              "children":[{"name":"fixpoint path/2",...}]}]}
//
// start_us is relative to the trace root, dur_us is the span's wall
// duration; counts carry span-specific tallies (answers per fixpoint
// round, expansions under search).
type Span struct {
	Name     string           `json:"name"`
	StartUs  float64          `json:"start_us"`
	DurUs    float64          `json:"dur_us"`
	Counts   map[string]int64 `json:"counts,omitempty"`
	Children []*Span          `json:"children,omitempty"`

	tr    *Trace
	start time.Time
	done  bool
}

// Trace collects the span tree for one query. Phases (parse, compile,
// search) hang off the root and register by name, so deeper layers — the
// table engine attaching fixpoint spans under "search" — can parent spans
// without the span being threaded through every call signature. All
// methods are safe on a nil receiver (tracing disabled) and safe for
// concurrent use (parallel strategies resolve tables from many
// goroutines).
type Trace struct {
	mu    sync.Mutex
	root  *Span
	open  map[string]*Span
	start time.Time
}

// NewTrace starts a trace whose root span has the given name.
func NewTrace(name string) *Trace { return NewTraceAt(name, time.Now()) }

// NewTraceAt starts a trace whose root span opened at start: the trace of
// a query whose first phase ran before the trace was made (see Record).
func NewTraceAt(name string, start time.Time) *Trace {
	t := &Trace{start: start, open: make(map[string]*Span, 4)}
	t.root = &Span{Name: name, tr: t, start: start}
	return t
}

// Record adds a phase that already ran, from start to end, under the
// root. Nil-safe.
func (t *Trace) Record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.Children = append(t.root.Children, &Span{
		Name:    name,
		StartUs: float64(start.Sub(t.start)) / 1e3,
		DurUs:   float64(end.Sub(start)) / 1e3,
		tr:      t,
		start:   start,
		done:    true,
	})
}

func (t *Trace) newSpan(parent *Span, name string) *Span {
	now := time.Now()
	s := &Span{Name: name, StartUs: float64(now.Sub(t.start)) / 1e3, tr: t, start: now}
	parent.Children = append(parent.Children, s)
	return s
}

// Phase opens a span directly under the root and registers it by name as
// the current phase, so Span(name, ...) can parent under it from another
// layer. Nil-safe.
func (t *Trace) Phase(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpan(t.root, name)
	t.open[name] = s
	return s
}

// Span opens a span under the open phase named parent, falling back to the
// root when no such phase is open. Nil-safe.
func (t *Trace) Span(parent, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.open[parent]
	if p == nil || p.done {
		p = t.root
	}
	return t.newSpan(p, name)
}

// Child opens a span under s. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.newSpan(s, name)
}

// End closes the span, fixing its duration. Nil-safe and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.done {
		s.DurUs = float64(time.Since(s.start)) / 1e3
		s.done = true
	}
}

// SetCount records a named tally on the span. Nil-safe.
func (s *Span) SetCount(k string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.Counts == nil {
		s.Counts = make(map[string]int64, 2)
	}
	s.Counts[k] = v
}

// Finish closes the root and any span still open (a streamed query
// abandoned mid-search leaves its search phase running) and returns the
// completed tree. Nil-safe: returns nil when tracing is disabled.
func (t *Trace) Finish() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var close func(s *Span)
	close = func(s *Span) {
		if !s.done {
			s.DurUs = float64(time.Since(s.start)) / 1e3
			s.done = true
		}
		for _, c := range s.Children {
			close(c)
		}
	}
	close(t.root)
	return t.root
}

// Render formats the span tree as an indented text outline, for the REPL.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		fmt.Fprintf(&b, "%s%-*s %9.1fµs", strings.Repeat("  ", depth), 24-2*depth, s.Name, s.DurUs)
		if len(s.Counts) > 0 {
			keys := make([]string, 0, len(s.Counts))
			for k := range s.Counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%d", k, s.Counts[k])
			}
		}
		b.WriteByte('\n')
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}
