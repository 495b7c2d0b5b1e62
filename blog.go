// Package blog is the public API of this reproduction of "B-LOG: A Branch
// and Bound Methodology for the Parallel Execution of Logic Programs"
// (G. J. Lipovski and M. V. Hermenegildo, ICPP 1985).
//
// A Program wraps a logic database plus a global weight table. Queries run
// under a chosen search strategy — Prolog's depth-first baseline,
// breadth-first, B-LOG's weighted best-first branch and bound, or the
// parallel OR-engine — and can learn arc weights per the paper's
// section-5 rules. Sessions scope that learning: strong updates stay local
// until the session ends, when they merge conservatively into the global
// table.
//
// Every strategy dispatches through the unified solver runtime of
// internal/solve, so queries uniformly support context cancellation and
// deadlines (QueryContext, IterContext) and a Program is safe for
// concurrent Query calls.
//
// Loading compiles the program for cheap resolution: functor and atom
// names are interned to integer symbols, and every clause becomes a
// slot-numbered skeleton that is activated per resolution step with one
// fresh-variable frame instead of a deep copy (see internal/term and
// internal/kb). Loading is therefore the expensive step and querying the
// cheap one — load a Program once and share it across goroutines.
//
// Quickstart:
//
//	p, err := blog.LoadString(src)
//	res, err := p.Query("gf(sam, G)", blog.BestFirst, blog.Learn())
//	for _, s := range res.Solutions {
//	    fmt.Println(s.String())
//	}
//
// The hardware models of section 6 (semantic paging disks, scoreboard
// processors, the minimum-seeking network) live in internal packages
// outside this facade, so a service built on it links none of them; the
// cycle-level machine simulation (internal/machine) and the cmd/blogbench
// experiment harness exercise them.
package blog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/parse"
	"blog/internal/prelude"
	"blog/internal/search"
	"blog/internal/session"
	"blog/internal/solve"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/vm"
	"blog/internal/weights"
)

// Strategy selects the search discipline for Query. It aliases the
// canonical enum of the solver runtime, so the facade adds no mapping of
// its own.
type Strategy = solve.Strategy

const (
	// DFS is Prolog's depth-first, source-order search.
	DFS = solve.DFS
	// BFS is breadth-first search.
	BFS = solve.BFS
	// BestFirst is B-LOG's weighted best-first branch and bound.
	BestFirst = solve.BestFirst
	// Parallel is the OR-parallel engine: goroutine workers running
	// trail-store segments that trade detached chains.
	Parallel = solve.Parallel
)

// ParseStrategy resolves the textual strategy names used by the CLI and
// REPL: dfs, bfs, best (or best-first), parallel.
func ParseStrategy(name string) (Strategy, error) { return solve.ParseStrategy(name) }

// ErrBudget reports that a query hit its expansion budget before the tree
// was exhausted; callers such as the query server map it to a distinct
// failure class.
var ErrBudget = search.ErrBudget

// ValidateQuery parses a query string without running it, so servers can
// reject malformed goals before spending a worker slot.
func ValidateQuery(query string) error {
	_, err := parse.Query(query)
	return err
}

// Program is a loaded logic program with its global weight database. It is
// safe for concurrent use: queries may run in parallel with each other and
// with weight-table maintenance (ResetWeights, LoadWeights).
type Program struct {
	db      *kb.DB
	queries [][]term.Term // directive queries from the source text
	// tables is the program's answer-table space for tabled resolution
	// (predicates declared `:- table name/arity`, queried with Tabled()).
	// Shared by every query; weight maintenance invalidates it.
	tables *table.Space

	mu     sync.RWMutex // guards global and cfg
	global *weights.Table
	cfg    weights.Config

	// journal, once enabled, receives structured engine events (table
	// lifecycle, VM recompiles, ...); see EnableJournal.
	journal atomic.Pointer[obs.Journal]
}

// Config tunes the weight coding; see internal/weights.Config.
type Config struct {
	// N is the target bound of successful chains (default 16).
	N float64
	// A is the longest accepted chain; A*N codes infinity and A bounds
	// search depth (default 64).
	A int
	// Prelude prepends the list/pair standard library (append/3,
	// member/2, select/3, permutation/2, ...) to the program.
	Prelude bool
}

// PreludeSource is the standard library source text prepended when
// Config.Prelude is set; it is plain Horn-clause code usable under every
// search strategy.
const PreludeSource = prelude.All

// LoadString parses a program and prepares an empty global weight table.
func LoadString(src string, cfg ...Config) (*Program, error) {
	wcfg := weights.DefaultConfig()
	if len(cfg) > 0 {
		if cfg[0].N > 0 {
			wcfg.N = cfg[0].N
		}
		if cfg[0].A > 0 {
			wcfg.A = cfg[0].A
		}
		if cfg[0].Prelude {
			src = prelude.All + "\n" + src
		}
	}
	db, qs, err := kb.LoadString(src)
	if err != nil {
		return nil, err
	}
	// Compile the bytecode program eagerly: loading is the expensive step
	// by contract, so the first query should not pay for compilation.
	if vm.Enabled {
		vm.For(db)
	}
	return &Program{
		db:      db,
		tables:  table.NewSpace(db, table.Config{MaxDepth: wcfg.A}),
		global:  weights.NewTable(wcfg),
		cfg:     wcfg,
		queries: qs,
	}, nil
}

// DirectiveQueries returns the `?- goal.` directives found in the source,
// rendered back to query strings.
func (p *Program) DirectiveQueries() []string {
	out := make([]string, 0, len(p.queries))
	for _, goals := range p.queries {
		parts := make([]string, len(goals))
		for i, g := range goals {
			parts[i] = g.String()
		}
		out = append(out, strings.Join(parts, ", "))
	}
	return out
}

// Stats describes the loaded database.
func (p *Program) Stats() (clauses, facts, rules, preds, arcs int) {
	s := p.db.ComputeStats()
	return s.Clauses, s.Facts, s.Rules, s.Preds, s.Arcs
}

// TabledPreds returns the sorted indicators of predicates declared
// `:- table name/arity` in the source.
func (p *Program) TabledPreds() []string { return p.db.TabledPreds() }

// TableInfo describes one memoized answer table; see Program.Tables.
type TableInfo = table.Info

// Tables lists the program's live answer tables (call-pattern variants
// materialized by Tabled() queries so far), sorted by predicate and call.
func (p *Program) Tables() []TableInfo { return p.tables.Tables() }

// TableTotals are the cumulative (monotonic, surviving invalidation)
// answer-table counters; see table.Totals.
type TableTotals = table.Totals

// TableStats reports the answer-table space: live table count and the
// cumulative counters of tables created, answers memoized, complete-table
// hits, answers replayed from complete tables (re-derivations avoided),
// and the answer-subsumption pair (answers subsumed / improved).
func (p *Program) TableStats() (tables int, totals TableTotals) {
	return p.tables.Len(), p.tables.Totals()
}

// TableAccounting aggregates the live resource gauges of the answer-table
// space: table counts by state and the total retained bytes and answers.
// Unlike TableTotals these drop to zero on invalidation.
type TableAccounting = table.Accounting

// TableAccounting returns the answer-table space's live resource gauges.
func (p *Program) TableAccounting() TableAccounting { return p.tables.Accounting() }

// TableInventory lists the live answer tables ranked by retained bytes,
// largest first — the operator's what-is-holding-memory view.
func (p *Program) TableInventory() []TableInfo { return p.tables.Inventory() }

// Journal is the program's structured engine-event journal: a lock-free
// bounded ring of typed events (table lifecycle with causes, VM
// recompiles, session churn, admission rejects, kills, slow queries).
// See internal/obs.
type Journal = obs.Journal

// Event is one journal entry.
type Event = obs.Event

// EnableJournal attaches an event journal retaining at least capacity
// events and returns it. Idempotent: the first call wins and later calls
// return the existing journal. A program without a journal pays one nil
// check per lifecycle transition and nothing on the resolution hot path.
func (p *Program) EnableJournal(capacity int) *Journal {
	if j := p.journal.Load(); j != nil {
		return j
	}
	j := obs.NewJournal(capacity)
	if !p.journal.CompareAndSwap(nil, j) {
		return p.journal.Load()
	}
	p.tables.SetJournal(j)
	p.db.SetEventJournal(j)
	return j
}

// Journal returns the enabled event journal, or nil.
func (p *Program) Journal() *Journal { return p.journal.Load() }

// PoolHighWater reports the process-wide trail-run pool high-water marks:
// the peak simultaneous activation-frame and pooled-compound counts any
// single sequential run reached since process start.
func PoolHighWater() (frames, compounds int64) { return term.PoolHighWater() }

// ResetWeights discards all learned global weights. Memoized answer
// tables survive: table fixpoints derive on a uniform store bounded only
// by the depth coding A, so learned-weight state never reaches a
// memoized answer set and discarding it cannot stale one.
func (p *Program) ResetWeights() {
	p.mu.Lock()
	p.global = weights.NewTable(p.cfg)
	p.mu.Unlock()
}

// LearnedArcs returns the number of arcs with learned global state.
func (p *Program) LearnedArcs() int { return p.globalStore().Len() }

// globalStore snapshots the current global table under the read lock, so
// in-flight queries keep a consistent store across ResetWeights/LoadWeights.
func (p *Program) globalStore() *weights.Table {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.global
}

// Option configures one Query call.
type Option func(*queryOpts)

type queryOpts struct {
	maxSolutions  int
	maxExpansions uint64
	maxDepth      int
	learn         bool
	prune         bool
	pruneSlack    float64
	occursCheck   bool
	workers       int
	d             float64
	twoLevel      bool
	session       *Session
	recordTree    bool
	recordTrace   bool
	andParallel   bool
	tabled        bool
	noVM          bool
	noTrail       bool
	traced        bool
	prof          *obs.Profiler
	live          *obs.Live
}

// newTrace starts the query's span trace when Traced() was given.
func (o *queryOpts) newTrace() *obs.Trace {
	if !o.traced {
		return nil
	}
	return obs.NewTrace("query")
}

// MaxSolutions stops the search after n solutions (0 = all).
func MaxSolutions(n int) Option { return func(o *queryOpts) { o.maxSolutions = n } }

// MaxExpansions bounds search work.
func MaxExpansions(n uint64) Option { return func(o *queryOpts) { o.maxExpansions = n } }

// MaxDepth bounds chain length in arcs (default: the program's A).
func MaxDepth(n int) Option { return func(o *queryOpts) { o.maxDepth = n } }

// Learn applies the section-5 weight update rules during the search, to
// the session store if one is active, else to the global table.
func Learn() Option { return func(o *queryOpts) { o.learn = true } }

// Prune enables strict branch-and-bound pruning against the best solution
// bound found. Sound only with section-4-consistent weights.
func Prune() Option { return func(o *queryOpts) { o.prune = true } }

// PruneSlack widens the pruning threshold: a chain survives while its
// bound is at most best+slack. Implies Prune.
func PruneSlack(slack float64) Option {
	return func(o *queryOpts) { o.prune = true; o.pruneSlack = slack }
}

// OccursCheck enables sound unification.
func OccursCheck() Option { return func(o *queryOpts) { o.occursCheck = true } }

// Workers sets the processor count for the Parallel strategy (default 4).
func Workers(n int) Option { return func(o *queryOpts) { o.workers = n } }

// MigrationThreshold sets D and switches the Parallel strategy to the
// paper's two-level scheduling: a worker whose local minimum (the least
// bound among the work it holds) exceeds the network minimum by more than
// d suspends its run into the network and takes the minimum instead.
func MigrationThreshold(d float64) Option {
	return func(o *queryOpts) { o.d = d; o.twoLevel = true }
}

// InSession directs learning into the given session's local store.
func InSession(s *Session) Option { return func(o *queryOpts) { o.session = s } }

// Tabled resolves predicates declared `:- table name/arity` through the
// program's answer-table space: each tabled subgoal variant is derived
// once to its complete, duplicate-free answer set (a bottom-up fixpoint
// for recursive definitions), and every later call — in this query or a
// later one — replays the memoized answers. This makes left-recursive
// programs terminate with complete answers under every strategy, where
// the plain OR-tree search only stops at the depth cutoff. Programs with
// no table declarations run unchanged. Tabled evaluation uses standard
// (non-occurs-check) unification inside the tables.
//
// Predicates declared `:- table name/arity min(N)` additionally apply
// answer subsumption: argument N is a cost position, and each table keeps
// only the least-cost answer per binding of the remaining arguments,
// replacing it whenever a strictly cheaper derivation arrives. Weighted
// left-recursive definitions (shortest/3 over a cyclic graph) then
// terminate with the true minimal cost per reachable pair; the
// Result.AnswersSubsumed / AnswersImproved counters report the lattice
// work done.
func Tabled() Option { return func(o *queryOpts) { o.tabled = true } }

// AndParallel evaluates the query's independent (non-variable-sharing)
// goal groups concurrently and combines them by cross product — the
// section-7 AND-parallel scheme. Groups use the sequential strategy
// given to Query; incompatible with Parallel, sessions are fine.
func AndParallel() Option { return func(o *queryOpts) { o.andParallel = true } }

// Compiled selects the resolution engine: on (the default) runs clause
// resolution on the compiled bytecode VM with switch-on-term dispatch
// (internal/vm); Compiled(false) forces the tree-walking engine, kept as
// the differential oracle (BLOG_COMPILED=off forces it process-wide).
func Compiled(on bool) Option { return func(o *queryOpts) { o.noVM = !on } }

// TrailStore selects the sequential-DFS binding representation: on (the
// default) runs one destructive trail-disciplined store with undo on
// backtrack; TrailStore(false) forces the persistent immutable Env
// chains, kept as the differential oracle. BFS and best-first always use
// Env — their frontiers need persistence — and Parallel always runs
// trail-store segments, so the option only affects DFS runs;
// Result.Representation reports which one ran.
func TrailStore(on bool) Option { return func(o *queryOpts) { o.noTrail = !on } }

// RecordTree records the search tree (Result.Tree); sequential only.
func RecordTree() Option { return func(o *queryOpts) { o.recordTree = true } }

// RecordTrace records figure-1 style resolution lines; sequential only.
func RecordTrace() Option { return func(o *queryOpts) { o.recordTrace = true } }

// Profiler accumulates per-predicate work counters and attributed wall
// time across the queries that carry it (Profiled option). All counters
// are atomic, so one Profiler may be shared by concurrent queries; see
// internal/obs.
type Profiler = obs.Profiler

// NewProfiler returns an empty per-predicate profiler.
func NewProfiler() *Profiler { return obs.NewProfiler() }

// PredProfile is one predicate's row in a profiler snapshot.
type PredProfile = obs.PredProfile

// Span is one timed node of a traced query's span tree (Result.Spans).
type Span = obs.Span

// Live is an in-flight query's inspector entry; see the blogd
// /debug/queries endpoint and internal/obs.
type Live = obs.Live

// Traced collects a span tree for the query — parse, compile, search,
// and table-fixpoint rounds — returned as Result.Spans (or
// SolutionIter.Spans for streams). Works under every strategy and both
// binding representations.
func Traced() Option { return func(o *queryOpts) { o.traced = true } }

// Profiled attributes the query's per-predicate work (expansions, VM
// dispatches, trail binds/undos, table hits/misses, wall nanos) into p.
// The same p may be given to many queries, including concurrent ones.
func Profiled(p *Profiler) Option { return func(o *queryOpts) { o.prof = p } }

// Monitor registers the query's live inspector entry: the engines sync
// their expansion counter into l as the search runs. Servers use this to
// power their in-flight query listing.
func Monitor(l *Live) Option { return func(o *queryOpts) { o.live = l } }

// Solution is one answer to a query.
type Solution struct {
	// Bindings maps query variable names to rendered value terms.
	Bindings map[string]string
	// Bound is the B-LOG chain bound at the solution.
	Bound float64
	// Depth is the chain length in arcs.
	Depth int

	varOrder []string
}

// String renders "X = v, Y = w" in variable order, or "true".
func (s Solution) String() string {
	if len(s.varOrder) == 0 {
		return "true"
	}
	parts := make([]string, 0, len(s.varOrder))
	for _, v := range s.varOrder {
		parts = append(parts, v+" = "+s.Bindings[v])
	}
	return strings.Join(parts, ", ")
}

// Answer is one solution as the engine produced it: the terms bound to
// the query's variables, not yet rendered. QueryEach and
// SolutionIter.NextAnswer hand answers out so a caller can render each one
// once, straight into its own output; Solution is the same answer
// converted to strings.
type Answer struct {
	// Names are the query variables' print names in query order. Every
	// answer of a query shares this one slice; do not modify it.
	Names []string
	// Bound is the B-LOG chain bound at the solution.
	Bound float64
	// Depth is the chain length in arcs.
	Depth int

	bindings map[string]term.Term
	// batch is the number of answers QueryEach hands out for the query, so
	// a collecting yield can size its slice once; 0 from an iterator.
	batch int
}

// Value returns the term bound to the variable Names[i]. It is a detached
// term: it stays valid after the query ends.
func (a Answer) Value(i int) term.Term { return a.bindings[a.Names[i]] }

// AppendText appends exactly what Solution.String prints for this answer:
// "X = v, Y = w" in variable order, or "true".
func (a Answer) AppendText(dst []byte) []byte {
	return engine.Solution{Bindings: a.bindings}.AppendText(dst, a.Names)
}

// solution converts the answer to its string form.
func (a Answer) solution() Solution {
	b := make(map[string]string, len(a.bindings))
	for k, v := range a.bindings {
		b[k] = v.String()
	}
	return Solution{Bindings: b, Bound: a.Bound, Depth: a.Depth, varOrder: a.Names}
}

// Counters are the work counters every query reports, batch (Result) and
// streaming (IterStats) alike.
type Counters struct {
	// Expanded, Generated, Failures and Pruned count search work.
	Expanded  uint64
	Generated uint64
	Failures  uint64
	Pruned    uint64
	// VMDispatched counts goals resolved on the compiled bytecode engine
	// (zero under Compiled(false) or BLOG_COMPILED=off).
	VMDispatched uint64
	// Representation names the binding representation that ran:
	// "trail-store" (destructive store with undo; DFS by default, and
	// Parallel) or "persistent-env" (immutable environment chains; BFS,
	// best-first, and DFS under TrailStore(false)).
	Representation string
	// Tabled-resolution counters (Tabled() runs only): tables this query
	// materialized, distinct answers it derived, calls served from an
	// already-complete table, and answers replayed from complete tables
	// (each one a subgoal re-derivation the untabled engine would redo).
	TablesCreated        uint64
	TableAnswers         uint64
	TableHits            uint64
	RederivationsAvoided uint64
	// TablesTruncated counts consumptions of depth-truncated tables: the
	// answer sets served were cut by the depth bound, so Exhausted=true
	// carries the same caveat it does for untabled depth cutoffs.
	TablesTruncated uint64
	// AnswersSubsumed and AnswersImproved are the answer-subsumption
	// counters of min(N) tables: derivations dropped because a cheaper
	// answer was already memoized, and memoized answers replaced by a
	// strictly cheaper derivation.
	AnswersSubsumed uint64
	AnswersImproved uint64
	// OR-parallel network counters (Parallel runs only): chains workers
	// took from the network, chains published to it, and migrations — a
	// worker suspending its run for a cheaper network chain (two-level
	// scheduling).
	NetworkAcquires uint64
	Spills          uint64
	Migrations      uint64
}

// countersFrom fills Counters from the engine's stats and the run's
// table counters — the one conversion behind Result and IterStats.
func countersFrom(st search.Stats, ts table.Stats) Counters {
	return Counters{
		Expanded:             st.Expanded,
		Generated:            st.Generated,
		Failures:             st.Failures,
		Pruned:               st.Pruned,
		VMDispatched:         st.VMDispatched,
		Representation:       st.Representation,
		TablesCreated:        ts.Created,
		TableAnswers:         ts.Answers,
		TableHits:            ts.Hits,
		RederivationsAvoided: ts.RederivationsAvoided,
		TablesTruncated:      ts.TablesTruncated,
		AnswersSubsumed:      ts.AnswersSubsumed,
		AnswersImproved:      ts.AnswersImproved,
	}
}

// Result is the outcome of one Query.
type Result struct {
	Solutions []Solution
	Counters
	// Exhausted reports that the whole tree was searched. It is reported
	// by the engine that ran the query, for every strategy, and is false
	// for a run stopped by MaxSolutions — it did not look further.
	Exhausted bool
	// Tree is the rendered search tree when RecordTree was set.
	Tree string
	// Trace holds figure-1 style lines when RecordTrace was set.
	Trace []string
	// Spans is the query's span tree when Traced was set: parse, compile
	// and search phases with table fixpoints and rounds beneath.
	Spans *Span
	// Groups is the independent-group count of an AndParallel run.
	Groups int
}

// Query parses and runs a query under the given strategy.
func (p *Program) Query(query string, strat Strategy, opts ...Option) (*Result, error) {
	return p.QueryContext(context.Background(), query, strat, opts...)
}

// QueryContext is Query with cancellation: a cancelled or deadlined ctx
// aborts the search promptly — under every strategy — and returns the
// context's error. It is QueryEach with a yield that converts every answer
// to a Solution and collects it in Result.Solutions.
func (p *Program) QueryContext(ctx context.Context, query string, strat Strategy, opts ...Option) (*Result, error) {
	var c collector
	res, err := p.QueryEach(ctx, query, strat, c.add, opts...)
	return c.result(res, err)
}

// QueryEach runs a query like QueryContext but hands each answer to yield
// instead of converting it: the engine's terms reach the caller with
// nothing built per answer, and Result.Solutions stays empty. A non-nil
// error from yield stops the hand-out and is returned.
func (p *Program) QueryEach(ctx context.Context, query string, strat Strategy, yield func(Answer) error, opts ...Option) (*Result, error) {
	req, err := p.parseRequest(query, strat, opts)
	if err != nil {
		return nil, err
	}
	return runRequest(ctx, req, yield)
}

// collector is the yield behind Result.Solutions.
type collector struct{ sols []Solution }

func (c *collector) add(a Answer) error {
	if c.sols == nil {
		c.sols = make([]Solution, 0, a.batch)
	}
	c.sols = append(c.sols, a.solution())
	return nil
}

func (c *collector) result(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res.Solutions = c.sols
	return res, nil
}

// QueryGoals runs pre-parsed goals (shared-variable structure preserved).
func (p *Program) QueryGoals(goals []term.Term, strat Strategy, opts ...Option) (*Result, error) {
	return p.QueryGoalsContext(context.Background(), goals, strat, opts...)
}

// QueryGoalsContext runs pre-parsed goals under ctx. All strategies go
// through the same solver runtime: the facade only assembles the Request
// and converts the unified Response. A Traced run's span tree has no
// parse phase here — the goals arrived parsed.
func (p *Program) QueryGoalsContext(ctx context.Context, goals []term.Term, strat Strategy, opts ...Option) (*Result, error) {
	o, store, err := p.applyOpts(opts)
	if err != nil {
		return nil, err
	}
	var c collector
	return c.result(runRequest(ctx, p.request(goals, strat, o, store), c.add))
}

// parseRequest is the shared front half of QueryContext and IterContext:
// fold the options, parse the query text under the trace's parse phase,
// assemble the solver request.
func (p *Program) parseRequest(query string, strat Strategy, opts []Option) (*solve.Request, error) {
	o, store, err := p.applyOpts(opts)
	if err != nil {
		return nil, err
	}
	req := p.request(nil, strat, o, store)
	psp := req.Trace.Phase("parse")
	req.Goals, err = parse.Query(query)
	psp.End()
	if err != nil {
		return nil, err
	}
	return req, nil
}

// runRequest is the shared back half of every batch query: run the
// request, hand each answer to yield, finish the trace.
func runRequest(ctx context.Context, req *solve.Request, yield func(Answer) error) (*Result, error) {
	resp, err := solve.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	names := engine.VarNames(resp.QueryVars)
	for _, s := range resp.Solutions {
		if err := yield(Answer{Names: names, Bound: s.Bound, Depth: s.Depth, bindings: s.Bindings, batch: len(resp.Solutions)}); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Counters:  countersFrom(resp.Stats.Stats, resp.Stats.Tables),
		Exhausted: resp.Exhausted,
		Trace:     resp.Trace,
		Spans:     req.Trace.Finish(),
		Groups:    resp.Stats.Groups,
	}
	res.NetworkAcquires, res.Spills, res.Migrations = resp.Stats.NetworkAcquires, resp.Stats.Spills, resp.Stats.Migrations
	if resp.Tree != nil {
		res.Tree = resp.Tree.Render()
	}
	return res, nil
}

// applyOpts folds the options and resolves the weight store (session-local
// when InSession is active, else the global table).
func (p *Program) applyOpts(opts []Option) (queryOpts, weights.Store, error) {
	var o queryOpts
	for _, f := range opts {
		f(&o)
	}
	if o.session != nil {
		if o.session.program != p {
			return o, nil, errors.New("blog: session belongs to a different program")
		}
		return o, o.session.inner, nil
	}
	return o, p.globalStore(), nil
}

// request assembles the solver-runtime request for one query run.
func (p *Program) request(goals []term.Term, strat Strategy, o queryOpts, store weights.Store) *solve.Request {
	// Programs with no `:- table` declarations run with the hook absent
	// entirely — Tabled() costs nothing on the per-goal path then.
	var tables *table.Space
	if o.tabled && p.db.HasTabled() {
		tables = p.tables
	}
	return &solve.Request{
		Tables:        tables,
		DB:            p.db,
		Store:         store,
		Goals:         goals,
		Strategy:      strat,
		AndParallel:   o.andParallel,
		MaxSolutions:  o.maxSolutions,
		MaxExpansions: o.maxExpansions,
		MaxDepth:      o.maxDepth,
		Learn:         o.learn,
		Prune:         o.prune,
		PruneSlack:    o.pruneSlack,
		OccursCheck:   o.occursCheck,
		NoVM:          o.noVM,
		NoTrail:       o.noTrail,
		Workers:       o.workers,
		TwoLevel:      o.twoLevel,
		D:             o.d,
		RecordTree:    o.recordTree,
		RecordTrace:   o.recordTrace,
		Trace:         o.newTrace(),
		Prof:          o.prof,
		Live:          o.live,
	}
}

// SolutionIter streams solutions one at a time, the interactive top-level
// style of querying ("; for more"). Learning, when enabled, applies to
// every chain the iterator completes even if the caller abandons it early.
type SolutionIter struct {
	inner  *search.Iter
	tables *table.Handle // nil for untabled streams
	names  []string
	trace  *obs.Trace // nil for untraced streams
}

// Iter prepares a lazy query under a sequential strategy (DFS, BFS or
// BestFirst); the Parallel strategy is not supported in streaming mode.
// Tree/trace recording (RecordTree, RecordTrace) and span tracing
// (Traced) stream too: the recorded tree, lines and spans grow as
// solutions are pulled, readable through Tree, Trace and Spans.
func (p *Program) Iter(query string, strat Strategy, opts ...Option) (*SolutionIter, error) {
	return p.IterContext(context.Background(), query, strat, opts...)
}

// IterContext is Iter with cancellation: once ctx is done, Next returns
// the context's error.
func (p *Program) IterContext(ctx context.Context, query string, strat Strategy, opts ...Option) (*SolutionIter, error) {
	req, err := p.parseRequest(query, strat, opts)
	if err != nil {
		return nil, err
	}
	it, th, err := solve.NewIter(ctx, req)
	if err != nil {
		return nil, err
	}
	return &SolutionIter{inner: it, tables: th, names: engine.VarNames(it.QueryVars()), trace: req.Trace}, nil
}

// Next returns the next solution; ok is false when the stream ends
// (err reports aborts such as the expansion budget or a done context).
func (s *SolutionIter) Next() (Solution, bool, error) {
	a, ok, err := s.NextAnswer()
	if !ok {
		return Solution{}, false, err
	}
	return a.solution(), true, nil
}

// NextAnswer is Next without the conversion: it hands out the engine's
// answer, to be rendered by the caller.
func (s *SolutionIter) NextAnswer() (Answer, bool, error) {
	sol, ok, err := s.inner.Next()
	if !ok {
		// The stream is over one way or another; close any open spans so
		// the trace is complete whenever the caller reads it.
		s.trace.Finish()
		return Answer{}, false, err
	}
	return Answer{Names: s.names, Bound: sol.Bound, Depth: sol.Depth, bindings: sol.Bindings}, true, nil
}

// Expanded returns the nodes expanded so far.
func (s *SolutionIter) Expanded() uint64 { return s.inner.Stats().Expanded }

// IterStats are the work counters of a streaming query so far: the same
// Counters a batch Result carries.
type IterStats struct{ Counters }

// Stats returns the counters accumulated by the iterator so far.
func (s *SolutionIter) Stats() IterStats {
	var ts table.Stats
	if s.tables != nil {
		ts = s.tables.Stats()
	}
	return IterStats{countersFrom(s.inner.Stats(), ts)}
}

// Exhausted reports whether the stream ended because the whole tree was
// searched (meaningful after Next returned ok=false with a nil error);
// false for a stream stopped by MaxSolutions, exactly as Result.Exhausted.
func (s *SolutionIter) Exhausted() bool { return s.inner.Exhausted() }

// Spans returns the stream's span tree when Traced was set, nil
// otherwise. It finishes the trace — closing the still-open search phase
// — so it is meant to be read once the caller is done pulling.
func (s *SolutionIter) Spans() *Span { return s.trace.Finish() }

// Tree returns the search tree rendered so far when RecordTree was set
// ("" otherwise); it grows as solutions are pulled.
func (s *SolutionIter) Tree() string {
	t := s.inner.Tree()
	if t == nil {
		return ""
	}
	return t.Render()
}

// Trace returns the figure-1 style lines recorded so far when
// RecordTrace was set.
func (s *SolutionIter) Trace() []string { return s.inner.Trace() }

// Session scopes weight learning per section 5: strong updates go to a
// local store; End merges them conservatively into the program's global
// table (infinities never override known global weights; known weights
// move a damped step toward the session's values).
type Session struct {
	program *Program
	inner   *session.Session
}

// NewSession begins a session. alpha in (0,1] is the end-of-session
// averaging factor; pass 0 for the default 0.5.
func (p *Program) NewSession(alpha float64) *Session {
	var opts []session.Option
	if alpha > 0 {
		opts = append(opts, session.WithAlpha(alpha))
	}
	return &Session{program: p, inner: session.New(p.globalStore(), opts...)}
}

// End closes the session and merges into the global table, returning
// counts of (adopted, averaged, infinitiesKept, infinitiesVetoed).
// Memoized answer tables survive the merge — even one that changed the
// global weight database — because table fixpoints derive on a uniform
// store bounded only by the depth coding A: learned weights steer search
// order and pruning of untabled queries, never the membership of a
// memoized answer set. (Earlier versions wiped the whole table space
// here, which made routine session churn a re-derivation stampede.)
func (s *Session) End() (adopted, averaged, kept, vetoed int) {
	st := s.inner.End()
	return st.Adopted, st.Averaged, st.InfinitiesKept, st.InfinitiesVetoed
}

// LocalLearned returns the number of locally learned arcs so far.
func (s *Session) LocalLearned() int { return s.inner.LocalLen() }

// NoteQuery records one query outcome for session reporting.
func (s *Session) NoteQuery(succeeded bool) { s.inner.NoteQuery(succeeded) }

// Counts returns (queries, successes, failures) recorded with NoteQuery.
func (s *Session) Counts() (queries, successes, failures int) { return s.inner.Counts() }

// Ended reports whether End has been called.
func (s *Session) Ended() bool { return s.inner.Ended() }

// SaveWeights serializes the global weight table in a line-oriented text
// format, so a learned database survives across processes (the global
// database "in secondary storage" of section 5).
func (p *Program) SaveWeights(w io.Writer) error {
	_, err := p.globalStore().WriteTo(w)
	return err
}

// LoadWeights replaces the global weight table with one previously saved
// by SaveWeights. The table's N/A coding becomes the program's coding.
func (p *Program) LoadWeights(r io.Reader) error {
	t, err := weights.ReadTable(r)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.global = t
	p.cfg = t.Config()
	p.mu.Unlock()
	// The loaded table's A becomes the program's depth coding, so the
	// answer-table space must rebuild under the same bound. Reconfigure
	// compares limits first: loading a weight file with the same A (the
	// common deploy cycle — save on shutdown, load at boot) keeps every
	// memoized table standing.
	p.tables.ReconfigureCause(table.Config{MaxDepth: t.Config().A}, "load_weights")
	return nil
}

// Assert parses src as clauses (facts or rules, no directives or
// queries) and appends them to the program's database. The incremental
// table maintenance reacts through kb's assert hook: memoized tables
// whose fixpoints were derived from an asserted predicate are
// dirty-marked and re-derive on next touch, while unrelated tables keep
// serving; the compiled-dispatch cache recompiles via the database
// generation counter as before. Asserts serialize against each other and
// against weight maintenance on the program mutex.
func (p *Program) Assert(src string) error {
	prog, err := parse.Source(src)
	if err != nil {
		return err
	}
	if len(prog.Tabled) > 0 || len(prog.Queries) > 0 {
		return fmt.Errorf("blog: Assert accepts only clauses; directives and queries must load with the program")
	}
	if len(prog.Clauses) == 0 {
		return fmt.Errorf("blog: no clause to assert in %q", src)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range prog.Clauses {
		p.db.Assert(c.Head, c.Body)
	}
	return nil
}

// SaveTables serializes the complete, untruncated answer tables to w
// (the persistent table snapshot blogd writes on shutdown and on its
// periodic timer) and returns how many were written. Safe to call
// concurrently with queries.
func (p *Program) SaveTables(w io.Writer) (int, error) {
	return p.tables.WriteSnapshot(w)
}

// LoadTables restores a snapshot written by SaveTables, validating every
// table against the current program: a table whose predicate is no
// longer tabled in the same mode, or whose recorded dependency
// fingerprints no longer match the clause store, is skipped and simply
// re-derives on first touch. Returns (loaded, skipped).
func (p *Program) LoadTables(r io.Reader) (loaded, skipped int, err error) {
	return p.tables.ReadSnapshot(r)
}

// GraphText renders the database in the figure-2 network style.
func (p *Program) GraphText() string { return p.db.GraphText() }

// GraphDOT renders the figure-2 fact network in Graphviz DOT syntax.
func (p *Program) GraphDOT() string { return p.db.GraphDOT() }

// LinkedListText renders the figure-4 weighted linked-list structure with
// current global weights.
func (p *Program) LinkedListText() string {
	g := p.globalStore()
	return p.db.LinkedListText(func(a kb.Arc) float64 { return g.Weight(a) })
}
