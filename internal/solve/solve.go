// Package solve is the unified, context-aware solver runtime behind every
// search discipline of the reproduction. The paper's central claim is that
// one OR-tree chain model can be driven by interchangeable scheduling
// disciplines — Prolog's depth-first baseline, breadth-first, B-LOG's
// weighted best-first branch and bound, the OR-parallel processor network,
// and the section-7 AND-parallel decomposition. This package makes that
// interchangeability literal: a single Request describes a query run
// (goals, weight store, strategy, budgets, learning, recording), Run
// routes it to the engine that implements it and hands each answer to the
// caller as an engine.Answer view, and a single Response carries the
// unified Stats back — one counter type, engine.Stats, from the machines
// up. Do is Run with a yield that detaches every answer into Solutions,
// its values in query-variable order. Every run takes a
// context.Context and honors cancellation and deadlines, which is what
// lets callers multiplex heavy concurrent query traffic over one Program.
package solve

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"blog/internal/andpar"
	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/par"
	"blog/internal/search"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/vm"
	"blog/internal/weights"
)

// Strategy selects the search discipline: search's enum, the system's
// one (the blog facade aliases it too).
type Strategy = search.Strategy

const (
	// DFS is Prolog's depth-first, source-order search.
	DFS = search.DFS
	// BFS is breadth-first search.
	BFS = search.BFS
	// BestFirst is B-LOG's weighted best-first branch and bound.
	BestFirst = search.BestFirst
	// Parallel is the OR-parallel engine (internal/par).
	Parallel = search.Parallel
)

// Request describes one query run: what to solve, over which database and
// weight store, under which discipline, and within which budgets.
type Request struct {
	// DB is the clause database; Store supplies (and, with Learn, absorbs)
	// arc weights — a weights.Table, a session overlay, or a conditional
	// store.
	DB    *kb.DB
	Store weights.Store
	// Goals is the parsed conjunction, shared-variable structure intact.
	Goals []term.Term
	// Strategy picks the discipline; AndParallel composes with the three
	// sequential strategies, which then drive each independent goal group.
	Strategy    Strategy
	AndParallel bool

	// Budgets and limits. Zero values mean: all solutions, the engine
	// default expansion cap, and the store's A depth constant.
	MaxSolutions  int
	MaxExpansions uint64
	MaxDepth      int

	// Learning and pruning switches.
	Learn      bool
	Prune      bool
	PruneSlack float64

	// Tables switches on tabled resolution: predicates declared
	// `:- table name/arity` resolve against this answer-table space
	// (memoized, deduplicated, complete answer sets) instead of program
	// clauses. nil runs untabled. The space is shared — across the
	// workers of one run and across runs — and is safe for all of them.
	Tables *table.Space

	// OR-parallel scheduling (Strategy == Parallel). Workers defaults to
	// 4; TwoLevel selects the paper's D-threshold network scheduling.
	Workers  int
	TwoLevel bool
	D        float64
	LocalCap int

	// Recording (sequential, non-AND-parallel runs only).
	RecordTree  bool
	RecordTrace bool

	// Observability. Trace, when non-nil, collects a span tree for this
	// run (compile, search, table fixpoint rounds). Prof, when non-nil,
	// accumulates per-predicate counters and attributed nanos; it may be
	// shared across concurrent runs (all counters are atomic). Live, when
	// non-nil, is this run's in-flight inspector entry; the engines sync
	// their expansion counter into it periodically. All three work on
	// every strategy.
	Trace *obs.Trace
	Prof  *obs.Profiler
	Live  *obs.Live
}

// Stats is the unified work accounting across every engine, the one
// struct that reaches blog.Result (blog.Counters aliases it): the
// engines' work counters, filled by whichever engine ran, plus the
// counters only one engine or the table space produces, which are zero
// elsewhere (e.g. Migrations outside Parallel, Groups outside
// AND-parallel, the table counters on an untabled run).
type Stats struct {
	// VMDispatched is zero on a recording run, whose walker labels the
	// figures.
	engine.Stats
	// The OR-parallel network's traffic, start-up and grain; see
	// par.NetworkStats.
	par.NetworkStats
	// The run's tabled-resolution counters (Request.Tables runs only),
	// read off its table handle; see table.Stats.
	TableStats

	// AND-parallel decomposition counters.
	Groups         int
	GroupSolutions []int
}

// TableStats names table.Stats for embedding beside engine.Stats.
type TableStats = table.Stats

// Response is the unified outcome of a Request.
type Response struct {
	// Solutions carry each answer's values in QueryVars order, its bound
	// and its depth: every solution of a run Do collects, and the detached
	// ones Parallel and AndParallel return (a sequential run handed to a
	// yield keeps none).
	Solutions []engine.Solution
	// QueryVars are the query's variables in first-occurrence order (the
	// rendering order for bindings).
	QueryVars []*term.Var
	Stats     Stats
	// Exhausted reports that the engine searched the whole tree: the
	// solution list is complete, not an artifact of MaxSolutions or
	// cancellation. It is engine-reported, never inferred from options.
	Exhausted bool
	// Tree is the recorded search tree when Request.RecordTree was set.
	Tree *search.Tree
	// Trace holds figure-1 style lines when Request.RecordTrace was set.
	Trace []string

	answers int        // handed out, for the search span's count
	cells   term.Cells // what a nil yield detaches Solutions into
}

// Run validates req and runs it on the engine that implements it — the
// OR-parallel network for Parallel, independent-group decomposition when
// AndParallel is set, the sequential engine otherwise — handing each
// answer to yield. It is the one place that chooses the engine; the table
// handle, the trace phases and the table counters wrap every engine the
// same way.
//
// A sequential run is pulled from one search.Iter, each answer a view
// over the run's live bindings, valid during its yield; it returns its
// Response beside any error, with the counters of the work done. Parallel
// and AndParallel answers cross goroutines, so they are yielded after the
// run, each a view over its detached values, and a failed run returns no
// Response. A non-nil error from yield stops the run and is returned. A
// nil yield keeps every answer, detached, in Response.Solutions.
func Run(ctx context.Context, req *Request, yield func(engine.Answer) error) (*Response, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	th, tb := tabler(req)
	compilePhase(req)
	ssp := searchPhase(req)
	var resp *Response
	var err error
	switch {
	case req.Strategy == Parallel:
		resp, err = orParallel(ctx, req, tb)
	case req.AndParallel:
		resp, err = andParallel(ctx, req, searchOptions(req, tb))
	default:
		resp, err = sequential(ctx, req, searchOptions(req, tb), yield)
	}
	if resp == nil {
		return nil, err
	}
	if th != nil {
		resp.Stats.TableStats = th.Stats()
	}
	closeSearch(ssp, resp)
	// Only the engines that cross goroutines hand solutions back here.
	if yield != nil && len(resp.Solutions) > 0 {
		if err := yieldDetached(resp, yield); err != nil {
			return nil, err
		}
	}
	return resp, err
}

// Do is Run collecting every solution, detached, into the Response; an
// error comes with a nil Response.
func Do(ctx context.Context, req *Request) (*Response, error) {
	resp, err := Run(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// yieldDetached hands out the solutions a run returned detached, each as
// a view whose Terms are the query's own variables, bound in a fresh Env
// to the solution's values, so it renders and detaches as a live view
// does. The Envs are carved from one term.Cells, a few chunks per run.
func yieldDetached(resp *Response, yield func(engine.Answer) error) error {
	own := make([]term.Term, len(resp.QueryVars))
	for i, v := range resp.QueryVars {
		own[i] = v
	}
	var cells term.Cells
	for _, s := range resp.Solutions {
		env := cells.Root()
		for i, v := range resp.QueryVars {
			if t := s.Values[i]; t != term.Term(v) {
				env = env.Bind(v, t)
			}
		}
		if err := yield(engine.Answer{Bound: s.Bound, Depth: s.Depth, Env: env, Terms: own, Vars: resp.QueryVars}); err != nil {
			return err
		}
	}
	return nil
}

// searchOptions is the one translation of a Request into the sequential
// engine's options, shared by the sequential runs and the AND-parallel
// groups.
func searchOptions(req *Request, tb engine.Tabler) search.Options {
	return search.Options{
		Strategy:      req.Strategy,
		MaxSolutions:  req.MaxSolutions,
		MaxExpansions: req.MaxExpansions,
		MaxDepth:      req.MaxDepth,
		Learn:         req.Learn,
		Prune:         req.Prune,
		PruneSlack:    req.PruneSlack,
		Tabler:        tb,
		RecordTree:    req.RecordTree,
		RecordTrace:   req.RecordTrace,
		Prof:          req.Prof,
		Live:          req.Live,
	}
}

// tabler returns the per-run table handle for req, as both the concrete
// handle (for stats extraction) and the engine interface (nil interface —
// not a typed nil — when tabling is off).
func tabler(req *Request) (*table.Handle, engine.Tabler) {
	if req.Tables == nil {
		return nil, nil
	}
	h := req.Tables.NewHandle()
	// Production honors the query's depth bound when it exceeds the
	// space default, so MaxDepth means the same thing tabled or not.
	h.SetMaxDepth(req.MaxDepth)
	// Table hit/miss counters and fixpoint spans flow through the handle
	// into the generator runs.
	h.SetProfiler(req.Prof)
	h.SetTrace(req.Trace)
	return h, h
}

// compilePhase records the clause-compilation span for a traced run. The
// compiled code is kept per predicate on the database, so the span shows
// real compile cost for the predicates asserted into since their last
// compile; otherwise it records the (cheap) walk over fresh code. No-op
// when the run is untraced.
func compilePhase(req *Request) {
	if req.Trace == nil {
		return
	}
	sp := req.Trace.Phase("compile")
	vm.For(req.DB)
	sp.End()
}

// searchPhase opens the span the engine runs under; table fixpoints
// attach beneath it by name while it is open. closeSearch stamps the
// unified counters and ends it — open_max only for a run that kept an
// open list (best-first, BFS) — and both are no-ops for untraced runs.
func searchPhase(req *Request) *obs.Span {
	if req.Trace == nil {
		return nil
	}
	return req.Trace.Phase("search")
}

func closeSearch(sp *obs.Span, resp *Response) {
	if sp == nil {
		return
	}
	sp.SetCount("expanded", int64(resp.Stats.Expanded))
	sp.SetCount("solutions", int64(resp.answers))
	if resp.Stats.OpenMax > 0 {
		sp.SetCount("open_max", int64(resp.Stats.OpenMax))
	}
	sp.End()
}

// errParallelPrune refuses pruning under the Parallel strategy, whose
// workers share no incumbent bound yet: a pruned request would get every
// solution back.
var errParallelPrune = errors.New("solve: prune needs a sequential strategy; parallel does not prune")

func validate(req *Request) error {
	if req.DB == nil {
		return errors.New("solve: nil database")
	}
	if req.Store == nil {
		return errors.New("solve: nil weight store")
	}
	if len(req.Goals) == 0 {
		return errors.New("solve: empty query")
	}
	if req.Strategy < DFS || req.Strategy > Parallel {
		return fmt.Errorf("solve: unknown strategy %v", req.Strategy)
	}
	if req.AndParallel && req.Strategy == Parallel {
		return errors.New("solve: AndParallel is incompatible with the Parallel strategy")
	}
	if (req.Prune || req.PruneSlack != 0) && req.Strategy == Parallel {
		return errParallelPrune
	}
	if (req.RecordTree || req.RecordTrace) && (req.Strategy == Parallel || req.AndParallel) {
		return errors.New("solve: tree/trace recording requires a sequential, non-AND-parallel run")
	}
	return nil
}

// sequential runs DFS, BFS and BestFirst, pulled from one search.Iter:
// each answer goes to yield as a view over the run's live bindings, and
// a nil yield is one that keeps them detached in Solutions, carved from
// the Response's cells.
func sequential(ctx context.Context, req *Request, opt search.Options, yield func(engine.Answer) error) (*Response, error) {
	it, err := search.NewIter(ctx, req.DB, req.Store, req.Goals, opt)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	resp := &Response{QueryVars: it.QueryVars()}
	if yield == nil {
		yield = func(a engine.Answer) error {
			resp.Solutions = append(resp.Solutions, a.Solution(&resp.cells))
			return nil
		}
	}
	a, ok, err := it.NextAnswer()
	for ; ok; a, ok, err = it.NextAnswer() {
		if err = yield(a); err != nil {
			break
		}
		resp.answers++
	}
	resp.Stats.Stats, resp.Exhausted, resp.Tree, resp.Trace = it.Stats(), it.Exhausted(), it.Tree(), it.Trace()
	return resp, err
}

// orParallel runs the OR-parallel engine of sections 3 and 6: n goroutine
// workers running trail-store segments and trading chains through the
// network, driven by package par.
func orParallel(ctx context.Context, req *Request, tb engine.Tabler) (*Response, error) {
	mode := par.SharedHeap
	if req.TwoLevel {
		mode = par.TwoLevel
	}
	pres, err := par.Run(ctx, req.DB, req.Store, req.Goals, par.Options{
		Workers:       req.Workers,
		Mode:          mode,
		D:             req.D,
		LocalCap:      req.LocalCap,
		MaxSolutions:  req.MaxSolutions,
		MaxExpansions: req.MaxExpansions,
		Learn:         req.Learn,
		MaxDepth:      req.MaxDepth,
		Tabler:        tb,
		Prof:          req.Prof,
		Live:          req.Live,
	})
	if err != nil {
		return nil, err
	}
	// Parallel completion order is nondeterministic; present solutions in
	// a stable order so every engine's Response reads the same way.
	sortSolutions(pres.Solutions, pres.QueryVars)
	return &Response{
		Solutions: pres.Solutions,
		QueryVars: pres.QueryVars,
		Stats:     Stats{Stats: pres.Stats.Stats, NetworkStats: pres.Stats.NetworkStats},
		Exhausted: pres.Exhausted,
		answers:   len(pres.Solutions),
	}, nil
}

// andParallel runs the section-7 engine: independent (non-variable-sharing)
// goal groups evaluated concurrently under a sequential strategy and
// combined by cross product, driven by package andpar; each group runs
// under group.
func andParallel(ctx context.Context, req *Request, group search.Options) (*Response, error) {
	// The solution cap bounds the combined cross product, not each group.
	group.MaxSolutions = 0
	ares, err := andpar.Solve(ctx, req.DB, req.Store, req.Goals, andpar.Options{
		Search:       group,
		Parallel:     true,
		MaxSolutions: req.MaxSolutions,
	})
	if err != nil {
		return nil, err
	}
	return &Response{
		Solutions: ares.Solutions,
		QueryVars: ares.QueryVars,
		Stats:     Stats{Stats: ares.Stats, Groups: ares.GroupCount, GroupSolutions: ares.GroupSolutions},
		Exhausted: ares.Exhausted,
		answers:   len(ares.Solutions),
	}, nil
}

// sortSolutions orders solutions by rendered bindings, then bound and
// depth, giving nondeterministic engines a stable presentation order.
// Each solution is rendered once, all into one buffer sized for short
// answers, and the solutions are sorted beside their texts' spans.
func sortSolutions(sols []engine.Solution, qvars []*term.Var) {
	names := engine.VarNames(qvars)
	buf := make([]byte, 0, 32*len(sols))
	keyed := make([]textKey, len(sols))
	for i, s := range sols {
		start := len(buf)
		buf = s.AppendText(buf, names)
		keyed[i] = textKey{sol: s, start: start, end: len(buf)}
	}
	slices.SortFunc(keyed, func(a, b textKey) int {
		if c := bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.sol.Bound, b.sol.Bound), cmp.Compare(a.sol.Depth, b.sol.Depth))
	})
	for i := range keyed {
		sols[i] = keyed[i].sol
	}
}

// textKey is a solution and the span of its text in sortSolutions' buffer.
type textKey struct {
	sol        engine.Solution
	start, end int
}
