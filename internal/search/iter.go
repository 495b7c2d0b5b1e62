package search

import (
	"context"
	"errors"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/term"
	"blog/internal/weights"
)

// Iter is the sequential search, pull-based: each Next call runs the
// strategy's loop just far enough to produce one more solution, which is
// how an interactive Prolog top level behaves ("; for more"). It is the
// only sequential run path — Run is this iterator drained — so the loop
// (pop, prune, solution, budget, expand, push) exists here and nowhere
// else. The weight rules still apply per completed chain when Learn is
// set, so an Iter that the caller abandons after the first answer has
// still learned from every chain it finished — the incremental setting
// the paper's sessions target.
type Iter struct {
	opt       Options
	queryVars []*term.Var
	served    int
	done      bool
	capped    bool // ended by the MaxSolutions cap, not by the tree
	err       error

	// trail, when non-nil, is the destructive-store DFS machine the Iter
	// delegates to (Options.Representation); the Env-frontier fields below
	// are unused then.
	trail *engine.TrailRun

	// exp is held by value so it lives wherever the Iter does; it also
	// carries the run's context and weight store.
	exp      engine.Expander
	frontier frontier
	stats    Stats
	maxExp   uint64

	// Branch-and-bound state when Options.Prune is set: open nodes whose
	// bound exceeds bestBound+PruneSlack are cut.
	bestBound float64
	haveBest  bool

	// Figure-1/figure-3 recording state when Options.RecordTree or
	// RecordTrace is set; recording routes DFS off the trail machine onto
	// the persistent-Env frontier.
	tb    *treeBuilder
	trace []string
}

// NewIter prepares a lazy search; ctx cancels future Next calls. Tree and
// trace recording route DFS onto the persistent-Env frontier (the trail
// machine keeps no per-node history); results arrive through Tree and
// Trace as the iteration progresses.
func NewIter(ctx context.Context, db *kb.DB, ws weights.Store, goals []term.Term, opt Options) (*Iter, error) {
	it := new(Iter)
	if err := it.init(ctx, db, ws, goals, opt); err != nil {
		return nil, err
	}
	return it, nil
}

// init is NewIter on caller-provided storage, so Run can drain an
// iterator that never leaves its stack frame.
func (it *Iter) init(ctx context.Context, db *kb.DB, ws weights.Store, goals []term.Term, opt Options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(goals) == 0 {
		return errors.New("search: empty query")
	}
	*it = Iter{opt: opt, maxExp: opt.MaxExpansions}
	if it.maxExp == 0 {
		it.maxExp = DefaultMaxExpansions
	}
	if opt.Representation() == RepTrailStore {
		it.trail = engine.NewTrailRun(engine.TrailConfig{
			DB:            db,
			Weights:       ws,
			OccursCheck:   opt.OccursCheck,
			MaxDepth:      opt.MaxDepth,
			Tabler:        opt.Tabler,
			Ctx:           ctx,
			Learn:         opt.Learn,
			Prune:         opt.Prune,
			PruneSlack:    opt.PruneSlack,
			MaxExpansions: it.maxExp,
			BudgetErr:     ErrBudget,
			Prof:          opt.Prof,
			Live:          opt.Live,
		}, goals)
		it.queryVars = it.trail.QueryVars()
		return nil
	}
	it.exp = *engine.NewExpander(db, ws)
	exp := &it.exp
	exp.OccursCheck = opt.OccursCheck
	exp.Ctx = ctx
	exp.Tabler = opt.Tabler
	exp.NoVM = opt.NoVM
	exp.Prof = opt.Prof
	exp.RecordTree = opt.RecordTree || opt.RecordTrace
	if opt.MaxDepth > 0 {
		exp.MaxDepth = opt.MaxDepth
	}
	for _, g := range goals {
		it.queryVars = term.Vars(g, it.queryVars)
	}
	it.stats.Representation = RepPersistentEnv
	if opt.RecordTree {
		it.tb = newTreeBuilder(goals)
	}
	it.frontier = newFrontier(opt.Strategy)
	it.frontier.push(exp.Root(goals))
	return nil
}

// Tree returns the search tree recorded so far when Options.RecordTree
// was set, nil otherwise. The tree grows as Next is called.
func (it *Iter) Tree() *Tree {
	if it.tb == nil {
		return nil
	}
	return it.tb.tree
}

// Trace returns the figure-1 style lines recorded so far when
// Options.RecordTrace was set.
func (it *Iter) Trace() []string { return it.trace }

// QueryVars returns the query's variables in first-occurrence order.
func (it *Iter) QueryVars() []*term.Var { return it.queryVars }

// Stats returns the work counters accumulated so far.
func (it *Iter) Stats() Stats {
	if it.trail != nil {
		return trailStats(it.trail.Stats())
	}
	s := it.stats
	s.VMDispatched = it.exp.VMDispatched
	return s
}

// Next produces the next solution. ok is false when the search is over:
// exhausted or capped (err nil), or aborted (err non-nil, e.g. ErrBudget
// or the context's error). After ok=false, further calls return the same
// result.
func (it *Iter) Next() (engine.Solution, bool, error) {
	if it.done {
		return engine.Solution{}, false, it.err
	}
	if it.opt.MaxSolutions > 0 && it.served >= it.opt.MaxSolutions {
		it.capped = true
		return it.finish(nil)
	}
	if it.trail != nil {
		// The machine checks context, budget and prune bounds itself, in
		// the same order as the loop below.
		sol, ok, err := it.trail.Next()
		if !ok {
			return it.finish(err)
		}
		it.served++
		return sol, true, nil
	}
	for it.frontier.len() > 0 {
		if err := it.exp.Ctx.Err(); err != nil {
			return it.finish(err)
		}
		if it.frontier.len() > it.stats.MaxFrontier {
			it.stats.MaxFrontier = it.frontier.len()
		}
		n := it.frontier.pop()
		// The prune runs at pop time, before the solution test: a solution
		// generated before an earlier Next call served a better bound is
		// cut here and never reaches the caller
		// (TestIterPruneStaleSolution pins the behavior).
		if it.opt.Prune && it.haveBest && n.Bound > it.bestBound+it.opt.PruneSlack {
			it.stats.Pruned++
			if it.tb != nil {
				it.tb.status(n, "pruned")
			}
			continue
		}
		if n.IsSolution() {
			sol := engine.Extract(n, it.queryVars)
			if it.opt.Learn {
				it.exp.Weights.RecordSuccess(sol.Chain)
			}
			if it.tb != nil {
				it.tb.status(n, "solution")
			}
			if !it.haveBest || n.Bound < it.bestBound {
				it.bestBound, it.haveBest = n.Bound, true
			}
			it.served++
			// Flush pending profiler attribution at the yield so time the
			// caller spends between pulls is not charged.
			it.exp.ProfFlush()
			return sol, true, nil
		}
		if it.stats.Expanded >= it.maxExp {
			return it.finish(ErrBudget)
		}
		it.stats.Expanded++
		if it.opt.Live != nil && it.stats.Expanded&1023 == 0 {
			it.opt.Live.Expanded.Store(it.stats.Expanded)
		}
		if n.Depth > it.stats.MaxDepth {
			it.stats.MaxDepth = n.Depth
		}
		children, err := it.exp.Expand(n)
		if err != nil && err != engine.ErrDepthLimit {
			return it.finish(err)
		}
		if err == engine.ErrDepthLimit {
			it.stats.DepthCutoffs++
		}
		if len(children) == 0 {
			it.stats.Failures++
			if it.opt.Learn {
				it.exp.Weights.RecordFailure(n.Chain.Slice())
			}
			if it.tb != nil {
				it.tb.status(n, "fail")
			}
			continue
		}
		it.stats.Generated += uint64(len(children))
		if it.opt.RecordTrace {
			it.trace = append(it.trace, traceLine(n, children))
		}
		if it.tb != nil {
			it.tb.addChildren(n, children)
		}
		if it.opt.Strategy == DFS {
			// Push in reverse so the first clause pops first: source order.
			for i := len(children) - 1; i >= 0; i-- {
				it.frontier.push(children[i])
			}
		} else {
			for _, c := range children {
				it.frontier.push(c)
			}
		}
	}
	return it.finish(nil)
}

// finish records the terminal state every later Next call repeats, then
// recycles the trail machine's scratch (solutions are detached copies) or
// closes the Env engine's open profiler interval and recycles its code
// cache.
func (it *Iter) finish(err error) (engine.Solution, bool, error) {
	it.done, it.err = true, err
	if it.trail != nil {
		it.trail.Release()
	} else {
		it.exp.ProfFlush()
		it.exp.Release()
	}
	return engine.Solution{}, false, err
}

// Exhausted reports whether the whole tree was searched: every chain was
// followed to a solution or failure, so the solutions served are complete
// (for non-pruned runs). It is meaningful after Next returned ok=false,
// and false for a run ended by an error or by the MaxSolutions cap — a
// capped run did not look further, even when the cap happened to equal
// the solution count.
func (it *Iter) Exhausted() bool { return it.done && it.err == nil && !it.capped }
