// Package obs is the engine-wide observability layer: a per-predicate
// profiler keyed on interned Syms (profiler.go), per-query span tracing
// (trace.go), a live-query registry for the server's inspector
// (live.go), and a lock-free bounded ring of structured engine events
// (journal.go). Everything is nil-receiver-safe so the disabled path
// costs one nil check and zero allocations.
//
// A served query has one context: its timeout context, wrapped by its
// Live entry, which the run takes as its context. The entry answers
// RequestID for the table space and the logs, and Live.Cancel, the
// inspector's kill, records the kill before it cancels the timeout
// context, so the server tells a killed query from a client gone away.
//
// The enabled profiler is cheap too: a run charges it through a Meter
// (exact counts, nanosecond sum and \+ time; other nanos split within
// windows of 32 intervals) that allocates nothing an unprofiled run does not.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blog/internal/term"
)

// Cell accumulates the counters for one predicate. Cells are reached
// through a dense Sym-indexed array, so the hot path is one pointer load
// and an atomic add; a cell, once created, is never moved or freed while
// its profiler lives.
type Cell struct {
	Expansions   atomic.Uint64
	VMDispatches atomic.Uint64
	TrailBinds   atomic.Uint64
	TrailUndos   atomic.Uint64
	TableHits    atomic.Uint64
	TableMisses  atomic.Uint64
	Nanos        atomic.Uint64

	sym   term.Sym
	arity int32 // first observed arity, for display
}

// Profiler accumulates per-predicate counters. Safe for concurrent use:
// counters are atomic, cells publish into their Sym-indexed slot with an
// atomic store, and the array itself grows geometrically under a mutex
// while readers load it through an atomic pointer.
type Profiler struct {
	mu    sync.Mutex
	cells atomic.Pointer[[]atomic.Pointer[Cell]]
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Cell returns the counter cell for the predicate fn/arity, creating it on
// first touch. Nil receiver returns nil, so call sites guard with a single
// nil check.
func (p *Profiler) Cell(fn term.Sym, arity int) *Cell {
	if p == nil {
		return nil
	}
	if cs := p.cells.Load(); cs != nil && int(fn) < len(*cs) {
		if c := (*cs)[fn].Load(); c != nil {
			return c
		}
	}
	return p.grow(fn, arity)
}

func (p *Profiler) grow(fn term.Sym, arity int) *Cell {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.cells.Load()
	if cur == nil || int(fn) >= len(*cur) {
		// Grow geometrically: programs intern predicates in source order,
		// so sizing to exactly fn+1 would recopy the array once per new
		// predicate — quadratic on wide programs.
		n := 0
		if cur != nil {
			n = len(*cur)
		}
		n = max(2*n, int(fn)+16)
		next := make([]atomic.Pointer[Cell], n)
		if cur != nil {
			for i := range *cur {
				next[i].Store((*cur)[i].Load())
			}
		}
		p.cells.Store(&next)
		cur = &next
	}
	// A cell within bounds publishes into its slot without copying the
	// array — first touch of a predicate is O(1), not O(predicates).
	if c := (*cur)[fn].Load(); c != nil {
		return c
	}
	c := &Cell{sym: fn, arity: int32(arity)}
	(*cur)[fn].Store(c)
	return c
}

// TableHit counts a memoized-answer replay for fn/arity.
func (p *Profiler) TableHit(fn term.Sym, arity int) {
	if p == nil {
		return
	}
	p.Cell(fn, arity).TableHits.Add(1)
}

// TableMiss counts a table production (fixpoint entry) for fn/arity.
func (p *Profiler) TableMiss(fn term.Sym, arity int) {
	if p == nil {
		return
	}
	p.Cell(fn, arity).TableMisses.Add(1)
}

// PredProfile is one predicate's counters, snapshotted.
type PredProfile struct {
	Pred         string `json:"pred"`
	Expansions   uint64 `json:"expansions"`
	VMDispatches uint64 `json:"vm_dispatches,omitempty"`
	TrailBinds   uint64 `json:"trail_binds,omitempty"`
	TrailUndos   uint64 `json:"trail_undos,omitempty"`
	TableHits    uint64 `json:"table_hits,omitempty"`
	TableMisses  uint64 `json:"table_misses,omitempty"`
	Nanos        uint64 `json:"nanos"`
}

// Snapshot returns every touched predicate's counters, hottest (most
// cumulative nanos) first. Nil receiver returns nil.
func (p *Profiler) Snapshot() []PredProfile {
	if p == nil {
		return nil
	}
	cs := p.cells.Load()
	if cs == nil {
		return nil
	}
	out := make([]PredProfile, 0, 16)
	for i := range *cs {
		c := (*cs)[i].Load()
		if c == nil || c.idle() {
			continue
		}
		pp := PredProfile{
			Pred:         fmt.Sprintf("%s/%d", c.sym.Name(), c.arity),
			Expansions:   c.Expansions.Load(),
			VMDispatches: c.VMDispatches.Load(),
			TrailBinds:   c.TrailBinds.Load(),
			TrailUndos:   c.TrailUndos.Load(),
			TableHits:    c.TableHits.Load(),
			TableMisses:  c.TableMisses.Load(),
			Nanos:        c.Nanos.Load(),
		}
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		return out[i].Pred < out[j].Pred
	})
	return out
}

// Top returns the n hottest predicates by cumulative nanos.
func (p *Profiler) Top(n int) []PredProfile {
	s := p.Snapshot()
	if n > 0 && len(s) > n {
		s = s[:n]
	}
	return s
}

// TotalNanos sums cumulative nanos over every predicate.
func (p *Profiler) TotalNanos() uint64 {
	var total uint64
	for _, pp := range p.Snapshot() {
		total += pp.Nanos
	}
	return total
}

// Merge adds q's counters into p. The server uses this to fold a
// per-query profile into the process-wide one: each query profiles into
// its own Profiler (exact per-query attribution for the slow-query log),
// then merges — O(predicates touched), off the hot path.
func (p *Profiler) Merge(q *Profiler) {
	if p == nil || q == nil {
		return
	}
	cs := q.cells.Load()
	if cs == nil {
		return
	}
	for i := range *cs {
		c := (*cs)[i].Load()
		if c == nil || c.idle() {
			continue
		}
		to := p.Cell(c.sym, int(c.arity)).counters()
		for j, a := range c.counters() {
			to[j].Add(a.Load())
		}
	}
}

// counters lists the cell's counters in a fixed order.
func (c *Cell) counters() [7]*atomic.Uint64 {
	return [...]*atomic.Uint64{&c.Expansions, &c.VMDispatches, &c.TrailBinds, &c.TrailUndos,
		&c.TableHits, &c.TableMisses, &c.Nanos}
}

// idle reports that the cell has counted nothing a snapshot shows.
func (c *Cell) idle() bool {
	return c.Expansions.Load() == 0 && c.Nanos.Load() == 0 && c.TableHits.Load() == 0 && c.TableMisses.Load() == 0
}

// Reset zeroes every counter and keeps the cells, so a pooled profiler
// starts its next query without allocating them again. Nothing may charge
// p while it resets.
func (p *Profiler) Reset() {
	if cs := p.cells.Load(); cs != nil {
		for i := range *cs {
			if c := (*cs)[i].Load(); c != nil {
				for _, a := range c.counters() {
					a.Store(0)
				}
			}
		}
	}
}

// meterWindow is how many closed intervals a Meter charges per clock
// read: a clock read costs nearly half a dispatch.
const meterWindow = 32

// tally is a predicate's counts in a Meter's run, not yet published.
type tally struct {
	cell                         *Cell
	exp, vm, binds, undos, nanos uint64
}

// Meter charges each interval between dispatches, its wall time and trail
// binds/undos, to the predicate dispatched at its start. It serves one
// engine run at a time, on one goroutine, and is reused across runs.
//
// It counts in plain run-local counters, resolving a predicate's cell on
// its first Note in the run, and publishes to the cells at Flush and
// Release; once warm it allocates nothing. It reads the clock once per
// meterWindow closed intervals and splits the elapsed time over the
// window's intervals in equal shares: counts and the nanosecond sum are
// exact, per-predicate nanos exact to within a window. Pause brackets an
// interval holding a nested run, so that run is charged whole (\+) or,
// with Skip, not at all (tables).
type Meter struct {
	p       *Profiler
	slot    []int32 // Sym -> index into tallies; 0 until noted in this run
	tallies []tally // tallies[0] is unused, so a zero slot means none
	dirty   []int32 // tallies noted since the last publish
	cur     int32   // tally of the open interval; 0 when none is open
	binds   uint64  // trail counters at the last charge
	undos   uint64
	start   time.Time // when the open window began
	n       int       // closed intervals in the open window
	win     [meterWindow]int32
}

// Start readies m, new or released, to charge a run into p and returns it,
// or returns nil if p is nil: the engines' guard is one nil check.
func (m *Meter) Start(p *Profiler) *Meter {
	if p == nil {
		return nil
	}
	m.p, m.tallies = p, append(m.tallies[:0], tally{})
	return m
}

// Note closes the open interval and opens one for fn/arity, counting an
// expansion. binds/undos are cumulative counters (term.Store's); deltas
// between notes are charged alongside time.
func (m *Meter) Note(fn term.Sym, arity int, binds, undos uint64) {
	if m.cur == 0 {
		m.start = time.Now()
		m.binds, m.undos = binds, undos
	} else if m.end(binds, undos); m.n == meterWindow {
		m.split(time.Now())
	}
	if int(fn) >= len(m.slot) || m.slot[fn] == 0 {
		m.touch(fn, arity)
	}
	k := m.slot[fn]
	t := &m.tallies[k]
	if t.exp == 0 {
		m.dirty = append(m.dirty, k)
	}
	t.exp++
	m.cur = k
}

// touch resolves fn's cell on its first Note in the run.
func (m *Meter) touch(fn term.Sym, arity int) {
	if int(fn) >= len(m.slot) {
		grown := make([]int32, max(2*len(m.slot), int(fn)+16))
		copy(grown, m.slot)
		m.slot = grown
	}
	m.slot[fn] = int32(len(m.tallies))
	m.tallies = append(m.tallies, tally{cell: m.p.Cell(fn, arity)})
}

// end closes the open interval: its predicate gets the trail deltas since
// the last charge, and the interval joins the window.
func (m *Meter) end(binds, undos uint64) {
	t := &m.tallies[m.cur]
	t.binds += binds - m.binds
	t.undos += undos - m.undos
	m.binds, m.undos = binds, undos
	m.win[m.n] = m.cur
	m.n++
}

// split charges the time since the window began over its intervals, an
// equal share each with the remainder to the first ones, so the sum is
// exact; the next window begins at now.
func (m *Meter) split(now time.Time) {
	d := uint64(max(now.Sub(m.start), 0))
	q, r := d/uint64(m.n), d%uint64(m.n)
	for i, k := range m.win[:m.n] {
		m.tallies[k].nanos += q
		if uint64(i) < r {
			m.tallies[k].nanos++
		}
	}
	m.n, m.start = 0, now
}

// Dispatch counts one VM dispatch for the predicate being charged.
func (m *Meter) Dispatch() {
	if m != nil && m.cur != 0 {
		m.tallies[m.cur].vm++
	}
}

// Pause closes the window now, the open interval's time so far included.
// Pausing before a nested run and again after charges the run whole to the
// open interval's predicate (\+, whose run does not profile); Skip after
// instead drops it (a tabled call, whose generators charge themselves).
func (m *Meter) Pause() {
	if m != nil && m.cur != 0 {
		m.end(m.binds, m.undos)
		m.split(time.Now())
	}
}

// Skip restarts the window clock without charging, excluding the time
// since the last Pause from attribution.
func (m *Meter) Skip() {
	if m != nil && m.cur != 0 {
		m.start = time.Now()
	}
}

// Flush closes the open interval and publishes every count, so time spent
// outside the engine (between pulls, after a terminal state) is charged
// to no one. It reads the clock after publishing, charging that too.
func (m *Meter) Flush(binds, undos uint64) {
	if m == nil || m.cur == 0 {
		return
	}
	m.end(binds, undos)
	m.cur = 0
	m.publish()
	n := m.n
	m.split(time.Now())
	for _, k := range m.win[:n] {
		t := &m.tallies[k]
		t.cell.Nanos.Add(t.nanos)
		t.nanos = 0
	}
}

// publish moves the counts of the tallies noted since the last publish
// into their cells.
func (m *Meter) publish() {
	for _, k := range m.dirty {
		t := &m.tallies[k]
		c := t.cell
		c.Expansions.Add(t.exp)
		c.VMDispatches.Add(t.vm)
		c.TrailBinds.Add(t.binds)
		c.TrailUndos.Add(t.undos)
		c.Nanos.Add(t.nanos)
		*t = tally{cell: c}
	}
	m.dirty = m.dirty[:0]
}

// Release flushes what the run left pending and forgets the run's cells,
// so m can Start another run.
func (m *Meter) Release() {
	if m == nil {
		return
	}
	m.Flush(m.binds, m.undos)
	for _, t := range m.tallies[1:] {
		m.slot[t.cell.sym] = 0
	}
	clear(m.tallies[1:])
	m.tallies, m.p = m.tallies[:1], nil
}
