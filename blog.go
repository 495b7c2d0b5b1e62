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
// deadlines (QueryContext, QueryEach) and a Program is safe for
// concurrent Query calls.
//
// Unification is sound under every strategy: it always runs the occurs
// check, so X = f(X) fails, X \= f(X) succeeds, and no answer is a
// cyclic term.
//
// Loading compiles the program for cheap resolution: functor and atom
// names are interned to integer symbols, the clauses are stored as parsed
// (internal/kb), and every predicate is compiled once to bytecode with a
// first-argument dispatch table (internal/vm), so a resolution step
// activates a clause by register capture instead of a deep copy. Loading
// is therefore the expensive step and querying the cheap one — load a
// Program once and share it across goroutines.
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
	"time"

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
// system's one strategy enum (search.Strategy), so the facade adds no
// mapping of its own.
type Strategy = search.Strategy

const (
	// DFS is Prolog's depth-first, source-order search.
	DFS = search.DFS
	// BFS is breadth-first search.
	BFS = search.BFS
	// BestFirst is B-LOG's weighted best-first branch and bound.
	BestFirst = search.BestFirst
	// Parallel is the OR-parallel engine: goroutine workers running
	// trail-store segments that trade detached chains.
	Parallel = search.Parallel
)

// ParseStrategy resolves the textual strategy names used by the CLI and
// REPL: dfs, bfs, best (or best-first), parallel.
func ParseStrategy(name string) (Strategy, error) { return search.ParseStrategy(name) }

// ErrBudget matches, under errors.Is, every LimitError: a query that
// passed one of its limits before the tree was exhausted.
var ErrBudget = engine.ErrBudget

// LimitError ends a query that passed one of its NumLimits limits.
type LimitError = engine.LimitError

const NumLimits = engine.NumLimits

// ValidateQuery parses a query string without running it, so servers can
// reject malformed goals before spending a worker slot.
func ValidateQuery(query string) error {
	_, err := ParseGoal(query)
	return err
}

// Goal is a parsed query. ParseGoal reads the text once and QueryEach runs
// the result, so a server that checks a goal before admitting it runs the
// very parse it checked. A Traced run records that parse as its parse
// phase, and its span tree starts where the parse did.
type Goal struct {
	goals []term.Term
	// vars are the goals' variables in first-occurrence order, as the
	// parse found them; nil for goals that arrived parsed.
	vars []*term.Var
	// parsed and end bound the parse; zero for goals that arrived parsed.
	parsed, end time.Time
}

// String renders the goal's conjunction in canonical form, as a `?-`
// directive line shows it.
func (g Goal) String() string {
	parts := make([]string, len(g.goals))
	for i, t := range g.goals {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// ParseGoal parses query text into a Goal.
func ParseGoal(query string) (Goal, error) {
	start := time.Now()
	goals, vars, err := parse.QueryVars(query)
	if err != nil {
		return Goal{}, err
	}
	return Goal{goals: goals, vars: vars, parsed: start, end: time.Now()}, nil
}

// Program is a loaded logic program with its global weight database. It is
// safe for concurrent use: queries may run in parallel with each other and
// with weight-table maintenance (LoadWeights).
type Program struct {
	db      *kb.DB
	queries [][]term.Term // directive queries from the source text
	// tables is the program's answer-table space for tabled resolution
	// (predicates declared `:- table name/arity`, queried with Tabled()).
	// Shared by every query; a weight load under a new A reconfigures it.
	tables *table.Space

	mu     sync.RWMutex // guards global
	global *weights.Table

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
	// Compile every predicate eagerly: loading is the expensive step by
	// contract, so the first query should not pay for compilation.
	vm.For(db)
	return &Program{
		db:      db,
		tables:  table.NewSpace(db, table.Config{MaxDepth: wcfg.A}),
		global:  weights.NewTable(wcfg),
		queries: qs,
	}, nil
}

// DirectiveQueries returns the `?- goal.` directives found in the source,
// as parsed, for QueryEach to run without reading them again.
func (p *Program) DirectiveQueries() []Goal {
	out := make([]Goal, len(p.queries))
	for i, goals := range p.queries {
		out[i] = Goal{goals: goals}
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

// LearnedArcs returns the number of arcs with learned global state.
func (p *Program) LearnedArcs() int { return p.globalStore().Len() }

// globalStore snapshots the current global table under the read lock, so
// in-flight queries keep a consistent store across LoadWeights.
func (p *Program) globalStore() *weights.Table {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.global
}

// Option configures one Query call: it sets a field of the query's
// Settings.
type Option func(*Settings)

// Settings are what a query's Options set, one field or two per Option
// (each named after it); the zero value runs with every default. Run takes
// them as they are, so a caller that fills them per query, as a server
// does from a request, builds no Option for it.
type Settings struct {
	MaxSolutions  int
	MaxExpansions uint64
	MaxDepth      int
	Learn         bool
	Prune         bool
	PruneSlack    float64
	Workers       int
	// D and TwoLevel are MigrationThreshold's.
	D           float64
	TwoLevel    bool
	Session     *Session // InSession's
	RecordTree  bool
	RecordTrace bool
	AndParallel bool
	Tabled      bool
	Traced      bool
	Prof        *Profiler // Profiled's
	Live        *Live     // Monitor's
}

// newTrace starts the query's span trace when Traced() was given. A goal
// from ParseGoal opens the trace at its parse, recorded as the parse
// phase; goals that arrived parsed have none.
func (s *Settings) newTrace(g Goal) *obs.Trace {
	if !s.Traced {
		return nil
	}
	if g.parsed.IsZero() {
		return obs.NewTrace("query")
	}
	tr := obs.NewTraceAt("query", g.parsed)
	tr.Record("parse", g.parsed, g.end)
	return tr
}

// MaxSolutions stops the search after n solutions (0 = all).
func MaxSolutions(n int) Option { return func(s *Settings) { s.MaxSolutions = n } }

// MaxExpansions bounds search work.
func MaxExpansions(n uint64) Option { return func(s *Settings) { s.MaxExpansions = n } }

// MaxDepth bounds chain length in arcs (default: the program's A).
func MaxDepth(n int) Option { return func(s *Settings) { s.MaxDepth = n } }

// Learn applies the section-5 weight update rules during the search, to
// the session store if one is active, else to the global table.
func Learn() Option { return func(s *Settings) { s.Learn = true } }

// Prune enables strict branch-and-bound pruning against the best solution
// bound found. Sound only with section-4-consistent weights.
func Prune() Option { return func(s *Settings) { s.Prune = true } }

// PruneSlack widens the pruning threshold: a chain survives while its
// bound is at most best+slack. Implies Prune.
func PruneSlack(slack float64) Option {
	return func(s *Settings) { s.Prune = true; s.PruneSlack = slack }
}

// Workers sets the processor count for the Parallel strategy (default 4).
func Workers(n int) Option { return func(s *Settings) { s.Workers = n } }

// MigrationThreshold sets D and switches the Parallel strategy to the
// paper's two-level scheduling: a worker whose local minimum (the least
// bound among the work it holds) exceeds the network minimum by more than
// d suspends its run into the network and takes the minimum instead.
func MigrationThreshold(d float64) Option {
	return func(s *Settings) { s.D = d; s.TwoLevel = true }
}

// InSession directs learning into the given session's local store.
func InSession(s *Session) Option { return func(o *Settings) { o.Session = s } }

// Tabled resolves predicates declared `:- table name/arity` through the
// program's answer-table space: each tabled subgoal variant is derived
// once to its complete, duplicate-free answer set (a bottom-up fixpoint
// for recursive definitions), and every later call — in this query or a
// later one — replays the memoized answers. This makes left-recursive
// programs terminate with complete answers under every strategy, where
// the plain OR-tree search only stops at the depth cutoff. Programs with
// no table declarations run unchanged. Tables unify as every strategy
// does, with the occurs check, so a production whose body would bind a
// variable to a term containing it derives no answer from that branch.
//
// Predicates declared `:- table name/arity min(N)` additionally apply
// answer subsumption: argument N is a cost position, and each table keeps
// only the least-cost answer per binding of the remaining arguments,
// replacing it whenever a strictly cheaper derivation arrives. Weighted
// left-recursive definitions (shortest/3 over a cyclic graph) then
// terminate with the true minimal cost per reachable pair; the
// Result.AnswersSubsumed / AnswersImproved counters report the lattice
// work done.
func Tabled() Option { return func(s *Settings) { s.Tabled = true } }

// AndParallel evaluates the query's independent (non-variable-sharing)
// goal groups concurrently and combines them by cross product — the
// section-7 AND-parallel scheme. Groups use the sequential strategy
// given to Query; incompatible with Parallel, sessions are fine.
func AndParallel() Option { return func(s *Settings) { s.AndParallel = true } }

// RecordTree records the search tree (Result.Tree); sequential only.
func RecordTree() Option { return func(s *Settings) { s.RecordTree = true } }

// RecordTrace records figure-1 style resolution lines; sequential only.
func RecordTrace() Option { return func(s *Settings) { s.RecordTrace = true } }

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
// and table-fixpoint rounds — returned as Result.Spans. Works under every
// strategy.
func Traced() Option { return func(s *Settings) { s.Traced = true } }

// Profiled attributes the query's per-predicate work (expansions, VM
// dispatches, trail binds/undos, table hits/misses, wall nanos) into p.
// The same p may be given to many queries, including concurrent ones.
func Profiled(p *Profiler) Option { return func(s *Settings) { s.Prof = p } }

// Monitor registers the query's live inspector entry: the engines sync
// their expansion counter into l as the search runs. Servers use this to
// power their in-flight query listing.
func Monitor(l *Live) Option { return func(s *Settings) { s.Live = l } }

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

// Answer is one solution as the engine holds it: the terms bound to the
// query's variables, read in place and not yet rendered. QueryEach hands
// answers out so a caller can render each one once, straight into its own
// output; Solution converts one to strings.
//
// An Answer is a view over the run's live bindings — on a depth-first run,
// a store the search rewrites as it moves on — so it is valid only during
// the yield that receives it. Value and Solution take out what must
// outlive it. In an answer's text a variable that is not one of the
// query's own prints as _G<serial> (term.AppendAnswer).
type Answer struct {
	// Names are the query variables' print names in query order. Every
	// answer of a query shares this one slice; do not modify it.
	Names []string
	// Bound is the B-LOG chain bound at the solution.
	Bound float64
	// Depth is the chain length in arcs.
	Depth int

	// view reads the answer: the run's live bindings on the sequential
	// strategies, and on Parallel and AndParallel, whose answers cross
	// goroutines detached, the query's own variables bound to the
	// detached values (solve.Run).
	view engine.Answer
}

// Value returns the term bound to the variable Names[i], detached: it
// stays valid after later answers and after the query ends, and a
// variable that occurs in several values of one answer is one variable
// in all of them.
func (a Answer) Value(i int) term.Term { return a.view.Value(i) }

// AppendValue appends the text of the term bound to Names[i], as
// Solution.Bindings holds it.
func (a Answer) AppendValue(dst []byte, i int) []byte {
	return term.AppendAnswer(dst, a.view.Terms[i], a.view.Env, a.view.Terms)
}

// AppendText appends exactly what Solution.String prints for this answer:
// "X = v, Y = w" in variable order, or "true".
func (a Answer) AppendText(dst []byte) []byte {
	if len(a.Names) == 0 {
		return append(dst, "true"...)
	}
	for i, name := range a.Names {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, name...)
		dst = append(dst, " = "...)
		dst = a.AppendValue(dst, i)
	}
	return dst
}

// Solution converts the answer to its string form, which stays valid
// after the answer does.
func (a Answer) Solution() Solution {
	b := make(map[string]string, len(a.Names))
	var buf [64]byte
	for i, name := range a.Names {
		switch v := a.view.Env.Resolve(a.view.Terms[i]).(type) {
		case term.Atom, term.Int:
			b[name] = v.String() // an atom's interned name: no copy
		default:
			b[name] = string(a.AppendValue(buf[:0], i))
		}
	}
	return Solution{Bindings: b, Bound: a.Bound, Depth: a.Depth, varOrder: a.Names}
}

// Counters are the work counters every query reports in its Result, under
// every strategy: one struct from the engines up (solve.Stats).
//
//   - Expanded, Generated, Failures, DepthCutoffs, Pruned, MaxDepth and
//     VMDispatched count search work; the trail machine fills them at its
//     arrivals, the Env frontier at its pops (best-first, BFS, a
//     recording DFS), and Parallel and AndParallel sum their workers' and
//     groups'.
//   - OpenMax is the high-water mark of the Env frontier's open list;
//     zero for a run on the trail machine, which keeps none.
//   - TablesCreated, TableAnswers, TableHits, RederivationsAvoided,
//     TablesTruncated, AnswersSubsumed and AnswersImproved are Tabled()
//     runs' table-handle counters (see table.Stats): tables this query
//     materialized, answers it derived, calls served from complete
//     tables, answers replayed from them, consumptions of depth-truncated
//     tables (Exhausted=true carries the same caveat as a depth cutoff),
//     and the min(N) answer-subsumption pair.
//   - NetworkAcquires, Spills, Migrations, PerWorkerExpanded,
//     StartupExpanded and the Grain counters are the OR-parallel
//     network's (Parallel runs only; see par.NetworkStats).
//   - Groups and GroupSolutions are an AndParallel run's independent
//     groups and each group's solution count.
type Counters = solve.Stats

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
}

// Query parses and runs a query under the given strategy.
func (p *Program) Query(query string, strat Strategy, opts ...Option) (*Result, error) {
	return p.QueryContext(context.Background(), query, strat, opts...)
}

// QueryContext is Query with cancellation: a cancelled or deadlined ctx
// aborts the search promptly — under every strategy — and returns the
// context's error, with a nil Result. It is QueryEach with a yield that
// converts every answer to a Solution and collects it in Result.Solutions.
func (p *Program) QueryContext(ctx context.Context, query string, strat Strategy, opts ...Option) (*Result, error) {
	g, err := ParseGoal(query)
	if err != nil {
		return nil, err
	}
	var sols []Solution
	res, err := p.QueryEach(ctx, g, strat, func(a Answer) error {
		sols = append(sols, a.Solution())
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	res.Solutions = sols
	return res, nil
}

// QueryEach runs a parsed goal like QueryContext but hands each answer to
// yield as the run finds it, instead of converting it: on the sequential
// strategies the answer is read from the run's live bindings, nothing is
// built per answer, and Result.Solutions stays empty. A non-nil error from
// yield stops the run and is returned.
//
// Once a sequential run (DFS, BFS or BestFirst, without AndParallel) has
// started, QueryEach returns its Result beside any error: the counters and
// spans of the work done, with Exhausted false. Otherwise an error comes
// with a nil Result.
func (p *Program) QueryEach(ctx context.Context, g Goal, strat Strategy, yield func(Answer) error, opts ...Option) (*Result, error) {
	var s Settings
	for _, f := range opts {
		f(&s)
	}
	return p.Run(ctx, g, strat, &s, yield)
}

// Run is the one query path: QueryEach with its Options already folded
// into s. Query, QueryContext and QueryEach fill Settings from their
// Options and call it, and it calls solve.Run once, which chooses the
// engine. The sequential strategies are pulled, each answer read from the
// run's live bindings, and report their Result however the run ends;
// Parallel and AndParallel answers cross goroutines, so they arrive as
// views over their detached values.
func (p *Program) Run(ctx context.Context, g Goal, strat Strategy, s *Settings, yield func(Answer) error) (*Result, error) {
	store := weights.Store(p.globalStore())
	if s.Session != nil {
		if s.Session.program != p {
			return nil, errors.New("blog: session belongs to a different program")
		}
		store = s.Session.inner
	}
	// Programs with no `:- table` declarations run with the hook absent
	// entirely — Tabled() costs nothing on the per-goal path then.
	var tables *table.Space
	if s.Tabled && p.db.HasTabled() {
		tables = p.tables
	}
	req := solve.Request{
		Tables:        tables,
		DB:            p.db,
		Store:         store,
		Goals:         g.goals,
		Vars:          g.vars,
		Strategy:      strat,
		AndParallel:   s.AndParallel,
		MaxSolutions:  s.MaxSolutions,
		MaxExpansions: s.MaxExpansions,
		MaxDepth:      s.MaxDepth,
		Learn:         s.Learn,
		Prune:         s.Prune,
		PruneSlack:    s.PruneSlack,
		Workers:       s.Workers,
		TwoLevel:      s.TwoLevel,
		D:             s.D,
		RecordTree:    s.RecordTree,
		RecordTrace:   s.RecordTrace,
		Trace:         s.newTrace(g),
		Prof:          s.Prof,
		Live:          s.Live,
	}
	var names []string
	resp, err := solve.Run(ctx, &req, func(a engine.Answer) error {
		if names == nil {
			names = engine.VarNames(a.Vars)
		}
		return yield(Answer{Names: names, Bound: a.Bound, Depth: a.Depth, view: a})
	})
	if resp == nil {
		return nil, err
	}
	res := &Result{Counters: resp.Stats, Exhausted: resp.Exhausted, Trace: resp.Trace, Spans: req.Trace.Finish()}
	if resp.Tree != nil {
		res.Tree = resp.Tree.Render()
	}
	return res, err
}

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
// queries) and appends them to the program's database. Each assert moves
// the asserted predicate's stamp and nothing else: memoized tables whose
// fixpoints read that predicate stop serving and re-derive on next touch,
// unrelated tables keep serving, and the predicate alone is recompiled on
// its next use. Asserts serialize against each other and against weight
// maintenance on the program mutex.
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
