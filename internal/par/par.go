// Package par implements the parallel B-LOG machine of sections 3 and 6 as
// a live goroutine engine: n workers (the paper's processors) each expand
// their own chains depth-first on a private trail store, and a
// minimum-seeking network moves surplus work between them.
//
// A worker drains chains on one engine.TrailRun per query; the first
// starts on the query's root. The network is a small bound-ordered list of
// detached chains — the untried alternatives of choice points, exported
// by TrailRun.Split — and a free worker pops its minimum. Workers touch it
// only to take work and to publish surplus, from the step hook each
// installs on its run:
//
//   - SharedHeap publishes one chain per step while hungry workers (those
//     holding no chain) outnumber queued chains, so every idle processor
//     is fed the oldest (shallowest, cheapest) alternatives of a busy one.
//     It is the D=∞ limit of the paper's design, and the server path.
//
//   - TwoLevel adds the two rules of section 6 over the same segments. A
//     worker whose stack holds more than LocalCap untried alternatives
//     publishes its oldest, and a worker whose local minimum — the least
//     bound of its node and of its choice points with alternatives left —
//     exceeds the network minimum by more than D while the network holds
//     surplus suspends its run into the network (TrailRun.Suspend) and
//     takes the minimum: a migration. D is the cost of moving a chain.
//
// The network minimum is published in an atomic register (the minimum-
// seeking circuit's output), so the D rule costs one atomic read per step;
// the network's mutex is taken only to publish, take or wait. Between
// those, a step touches only its worker's own state: the expansion budget
// is shared, but a worker leases it leaseSize expansions at a time.
//
// Cancellation needs no watcher. A worker parks only in take, while the
// network is empty and a chain is still outstanding, so another worker is
// running that chain. A running worker reads the context every few nodes
// (engine's ctxPoll), and on cancellation calls fail, whose broadcast
// wakes every parked worker to see the stop.
package par

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/weights"
)

// Mode selects the scheduling discipline.
type Mode int

const (
	// SharedHeap feeds idle workers from busy ones' oldest alternatives.
	SharedHeap Mode = iota
	// TwoLevel adds the LocalCap spill and the D migration rule.
	TwoLevel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == TwoLevel {
		return "two-level"
	}
	return "shared-heap"
}

// Options configures a parallel run.
type Options struct {
	// Workers is the number of simulated processors (default 4).
	Workers int
	Mode    Mode
	// D is the migration threshold of section 6: a worker whose local
	// minimum exceeds the network minimum by more than D, while the network
	// holds surplus, suspends its run there and takes the minimum. Ignored
	// by SharedHeap.
	D float64
	// LocalCap bounds the untried alternatives a worker's choice-point
	// stack may hold in TwoLevel mode; past it, the oldest are published
	// (default 64).
	LocalCap int
	// MaxSolutions stops the run after this many solutions; 0 finds all.
	MaxSolutions int
	// MaxExpansions bounds total work; 0 takes the expansions default.
	MaxExpansions uint64
	// Learn applies the section-5 weight rules as chains complete.
	Learn bool
	// MaxDepth bounds chain length; 0 uses the store's A constant.
	MaxDepth int
	// Tabler, when non-nil, resolves declared tabled predicates against
	// memoized answer tables shared by all workers; the implementation
	// (internal/table) serializes production and lets workers consume
	// completed tables lock-free.
	Tabler engine.Tabler
	// Prof, when non-nil, accumulates per-predicate profile counters from
	// every worker; its counters are atomic, so the workers share it
	// directly.
	Prof *obs.Profiler
	// Live, when non-nil, is the run's in-flight inspector entry; the
	// shared expansion counter is synced into it at each lease.
	Live *obs.Live
}

// Stats are a run's counters: the workers' engine counters, summed with
// engine.Stats.Add, and the network's.
type Stats struct {
	engine.Stats
	NetworkStats
}

// NetworkStats are the counters only the OR-parallel network keeps.
type NetworkStats struct {
	// Migrations counts runs suspended into the network by the D rule.
	Migrations uint64
	// NetworkAcquires counts chains taken from the network, the root
	// among them.
	NetworkAcquires uint64
	// Spills counts chains published to the network.
	Spills uint64
	// PerWorkerExpanded records each worker's expansion count, the
	// utilization-balance signal for experiment E5.
	PerWorkerExpanded []uint64
	// StartupExpanded counts the expansions made before a second worker
	// took its first chain: all of them when none did. It is read off the
	// leased budget, so it may count leased expansions not yet made, up to
	// a lease a worker; it is clamped to the expansions made.
	StartupExpanded uint64
	// The grain of published chains: how many were drained, and the sum
	// and the largest of the expansions each was drained with.
	GrainCount, GrainSum, GrainMax uint64
}

// Result is the outcome of a parallel run.
type Result struct {
	Solutions []engine.Solution
	Stats     Stats
	QueryVars []*term.Var
	// Exhausted means the whole tree was searched.
	Exhausted bool
}

// errStopped and errMigrated end a worker's run from its step hook: the
// run as a whole stopped, or the worker suspended its run into the network.
var (
	errStopped  = errors.New("par: stopped")
	errMigrated = errors.New("par: migrated")
)

// Run searches goals over db with opt.Workers parallel workers. When ctx
// is cancelled, every worker stops promptly — the running ones at their
// next context poll, the ones parked on the network condvar woken by
// them — and Run returns the context's error alongside the partial
// result. A panicking worker stops the others and becomes the run's
// error.
func Run(ctx context.Context, db *kb.DB, ws weights.Store, goals []term.Term, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(goals) == 0 {
		return nil, errors.New("par: empty query")
	}
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.LocalCap <= 0 {
		opt.LocalCap = 64
	}
	st := &state{opt: opt, maxExp: engine.Expansions.Or(opt.MaxExpansions)}
	st.cond.L = &st.mu
	st.solutions = make([]engine.Solution, 0, firstSolutions)
	st.sync()
	st.outstanding.Store(1)
	st.hungry.Store(int32(opt.Workers - 1))
	st.takers = 1

	workers := make([]worker, opt.Workers)
	var qvars []*term.Var
	for i := range workers {
		w := &workers[i]
		w.cfg = engine.TrailConfig{
			DB: db, Weights: ws, MaxDepth: opt.MaxDepth,
			Tabler: opt.Tabler, Ctx: ctx, Learn: opt.Learn, Prof: opt.Prof,
			StepHook: func() error { return st.step(w) },
		}
		if i == 0 { // the root, renamed apart as a sequential run renames it
			w.run.Init(w.cfg, goals)
			w.started, w.acquires, qvars = true, 1, w.run.QueryVars()
		}
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.work(w)
		}()
	}
	st.wg.Wait()

	res := &Result{QueryVars: qvars, Solutions: st.solutions, Exhausted: st.exhausted.Load()}
	res.Stats.PerWorkerExpanded = make([]uint64, opt.Workers)
	for i := range workers {
		w := &workers[i]
		res.Stats.Migrations += w.migrations
		res.Stats.NetworkAcquires += w.acquires
		res.Stats.Spills += w.published
		res.Stats.GrainCount += w.grains
		res.Stats.GrainSum += w.grainSum
		res.Stats.GrainMax = max(res.Stats.GrainMax, w.grainMax)
		if !w.started {
			continue
		}
		ts := w.run.Stats()
		res.Stats.PerWorkerExpanded[i] = ts.Expanded
		res.Stats.Add(ts)
		if !w.panicked {
			w.run.Release()
		}
	}
	res.Stats.StartupExpanded = res.Stats.Expanded
	if st.takers >= 2 {
		res.Stats.StartupExpanded = min(st.startup, res.Stats.Expanded)
	}
	if opt.MaxSolutions > 0 && len(res.Solutions) > opt.MaxSolutions {
		res.Solutions = res.Solutions[:opt.MaxSolutions]
	}
	return res, st.err
}

const (
	firstSolutions = 16 // the solution capacity a run starts with
	// leaseSize is how many expansions a worker takes from the shared
	// budget at a time, so its cache line is written once per leaseSize
	// steps, not at every step of every worker.
	leaseSize = 64
)

// state is the shared coordination state of one run.
type state struct {
	opt    Options
	maxExp uint64

	wg   sync.WaitGroup
	mu   sync.Mutex
	cond sync.Cond // on mu
	// net, err, solutions, takers and startup are guarded by mu.
	net       network
	err       error
	solutions []engine.Solution
	// takers counts the workers that have taken a chain; startup is the
	// expansion count when the second of them took its first.
	takers  int
	startup uint64

	// hungry counts workers holding no chain — waiting on the network, or
	// not started yet — and queued the chains in the network; atomic so
	// the step hook compares them without the lock.
	hungry atomic.Int32
	queued atomic.Int32
	// netMin is the min-seeking circuit: the network minimum's float64 bits.
	netMin atomic.Uint64
	// outstanding counts chains running or queued; 0 means exhaustion.
	outstanding atomic.Int64
	// expanded is the budget leased to workers so far.
	expanded  atomic.Uint64
	stop      atomic.Bool
	exhausted atomic.Bool
}

// worker is one processor: its run, configuration, the expansions left
// in its lease of the budget, network accounting, and the cells its
// answers are detached into. The cells are the run's own, not pooled, so
// a kept Result pins only chunks of its own answers.
type worker struct {
	cfg               engine.TrailConfig
	run               engine.TrailRun
	cells             term.Cells
	started, panicked bool
	lease             uint64

	migrations, acquires, published uint64
	// grains counts the published chains the worker drained; grainSum and
	// grainMax are the sum and largest of the expansions under each.
	grains, grainSum, grainMax uint64
}

// work takes chains from the network and drains each on the worker's run,
// until the run as a whole stops. A panic becomes the run's error.
func (s *state) work(w *worker) {
	defer func() {
		if p := recover(); p != nil {
			w.panicked = true
			s.fail(fmt.Errorf("par: worker panic: %v", p))
		}
	}()
	// The root's expansions are not a published chain's grain.
	if w.started && !s.drain(w) {
		return
	}
	for {
		c := s.take(w)
		if c == nil {
			return
		}
		before := w.run.Stats().Expanded
		if w.started {
			w.run.Resume(c)
		} else {
			w.run.InitChain(w.cfg, c)
			w.started = true
		}
		more := s.drain(w)
		g := w.run.Stats().Expanded - before
		w.grains, w.grainSum, w.grainMax = w.grains+1, w.grainSum+g, max(w.grainMax, g)
		if !more {
			return
		}
	}
}

// drain runs the worker's chain to its end and reports whether the worker
// goes on to another.
func (s *state) drain(w *worker) bool {
	for {
		ok, err := w.run.Advance()
		switch {
		case ok:
			if s.addSolution(w.run.Answer().Solution(&w.cells)) {
				return false
			}
		case err == errStopped:
			return false
		case err != nil && err != errMigrated:
			s.fail(err)
			return false
		default: // the chain is done, or suspended into the network
			if s.outstanding.Add(-1) == 0 {
				s.exhausted.Store(!s.stop.Load())
				s.setStop()
				return false
			}
			s.hungry.Add(1)
			return true
		}
	}
}

// step is the hook each worker's run calls at every non-solution arrival,
// before counting it: stop check, TwoLevel's rules, feeding hungry
// workers, then the worker's lease of the budget.
func (s *state) step(w *worker) error {
	if s.stop.Load() {
		return errStopped
	}
	if s.opt.Mode == TwoLevel {
		untried, least := w.run.Untried()
		if untried > s.opt.LocalCap {
			if c := w.run.Split(); c != nil {
				s.publish(w, c)
			}
		}
		if s.queued.Load() > s.hungry.Load() && least > math.Float64frombits(s.netMin.Load())+s.opt.D {
			if cs := w.run.Suspend(); cs != nil {
				s.publish(w, cs...)
				w.migrations++
				return errMigrated
			}
		}
	}
	if s.hungry.Load() > s.queued.Load() {
		if c := w.run.Split(); c != nil {
			s.publish(w, c)
		}
	}
	if w.lease == 0 {
		// Leases never grant past the budget, so the workers' expansions
		// sum to at most maxExp.
		from := s.expanded.Add(leaseSize) - leaseSize
		if from >= s.maxExp {
			return engine.LimitError{Limit: engine.Expansions, Bound: s.maxExp}
		}
		w.lease = min(leaseSize, s.maxExp-from)
		if l := s.opt.Live; l != nil {
			l.Expanded.Store(from + w.lease)
		}
	}
	w.lease--
	return nil
}

// publish puts chains on the network and wakes a waiting worker for each.
func (s *state) publish(w *worker, cs ...*engine.Chain) {
	s.outstanding.Add(int64(len(cs)))
	w.published += uint64(len(cs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cs {
		s.net.push(c)
		s.cond.Signal()
	}
	s.sync()
}

// take pops the network minimum, waiting while the network is empty; nil
// means the run stopped.
func (s *state) take(w *worker) *engine.Chain {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stop.Load() {
		if c := s.net.pop(); c != nil {
			s.sync()
			s.hungry.Add(-1)
			if w.acquires == 0 {
				if s.takers++; s.takers == 2 {
					s.startup = s.expanded.Load()
				}
			}
			w.acquires++
			return c
		}
		s.cond.Wait()
	}
	return nil
}

// sync refreshes the atomic views of the network. Caller holds mu.
func (s *state) sync() {
	s.queued.Store(int32(len(s.net)))
	min := math.Inf(1)
	if n := len(s.net); n > 0 {
		min = s.net[n-1].Bound
	}
	s.netMin.Store(math.Float64bits(min))
}

// addSolution records sol and reports whether it reached the solution
// cap, which stops the run.
func (s *state) addSolution(sol engine.Solution) bool {
	s.mu.Lock()
	s.solutions = append(s.solutions, sol)
	hit := s.opt.MaxSolutions > 0 && len(s.solutions) >= s.opt.MaxSolutions
	s.mu.Unlock()
	if hit {
		s.setStop()
	}
	return hit
}

// setStop halts the run and wakes sleepers.
func (s *state) setStop() {
	s.stop.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail records err (first writer wins) and halts the run.
func (s *state) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.setStop()
}

// network is the bound-ordered list of published chains, sorted by
// descending bound so the minimum pops off the end; among equal bounds the
// oldest pops first. It holds about one chain per hungry worker (more
// under TwoLevel), so insertion is a linear scan.
type network []*engine.Chain

func (n *network) push(c *engine.Chain) {
	l := append(*n, nil)
	i := len(l) - 1
	for ; i > 0 && l[i-1].Bound <= c.Bound; i-- {
		l[i] = l[i-1]
	}
	l[i] = c
	*n = l
}

// pop removes and returns the minimum chain; nil when empty.
func (n *network) pop() *engine.Chain {
	l := *n
	if len(l) == 0 {
		return nil
	}
	c := l[len(l)-1]
	l[len(l)-1] = nil
	*n = l[:len(l)-1]
	return c
}
