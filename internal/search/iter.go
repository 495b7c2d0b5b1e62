package search

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/term"
	"blog/internal/weights"
)

// Iter is the sequential search, pull-based: each pull runs the strategy's
// loop just far enough to produce one more solution, which is how an
// interactive Prolog top level behaves ("; for more"). It is the only
// sequential run path — Run is this iterator drained — so the loop (pop,
// prune, solution, budget, expand, push) exists here and nowhere else;
// DFS hands it to the trail machine, which runs the same sequence, unless
// the oracle or a recording keeps it on the persistent-Env frontier
// (NewIter states the rule). A pull (NextAnswer) lends the solution as a
// view over the run's live bindings that holds until the next pull, and
// engine.Answer.Solution detaches it. The weight rules still apply per
// completed chain when Learn is set, so an Iter that the caller abandons
// after the first answer has still learned from every chain it finished —
// the incremental setting the paper's sessions target.
type Iter struct {
	opt       Options
	queryVars []*term.Var
	served    int
	done      bool
	capped    bool // ended by the MaxSolutions cap, not by the tree
	err       error

	// trail is the destructive-store DFS machine the Iter delegates to
	// when onTrail is set (see NewIter); the Env-frontier fields below are
	// unused then.
	trail   engine.TrailRun
	onTrail bool

	// exp is held by value so it lives wherever the Iter does; it also
	// carries the run's context and weight store.
	exp      engine.Expander
	frontier frontier
	stats    engine.Stats
	maxExp   uint64

	// cur is the solution node the last pull stopped at. terms are the
	// query variables as the terms an answer reads through cur's
	// environment, filled on the first NextAnswer into the array a
	// pooled iterator keeps; det is the renaming
	// their values share, zeroed at each pull. chain is the scratch the
	// weight rules read a node's arc chain from.
	cur   *engine.Node
	terms []term.Term
	det   term.Detacher
	chain []kb.Arc

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

// NewIter prepares a lazy search, on an iterator from the pool Close
// hands it back to; ctx cancels future pulls. Tree and trace recording
// route DFS onto the persistent-Env frontier (the trail machine keeps no
// per-node history); results arrive through Tree and Trace as the
// iteration progresses.
func NewIter(ctx context.Context, db *kb.DB, ws weights.Store, goals []term.Term, opt Options) (*Iter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(goals) == 0 {
		return nil, errors.New("search: empty query")
	}
	if opt.Strategy < DFS || opt.Strategy >= Parallel {
		return nil, fmt.Errorf("search: %v is not a sequential strategy", opt.Strategy)
	}
	it := iters.Get().(*Iter)
	*it = Iter{opt: opt, maxExp: engine.Expansions.Or(opt.MaxExpansions), terms: it.terms}
	// DFS runs on the trail machine unless the oracle (NoVM) or a
	// recording is asked for: the walker and the recorders run on the
	// persistent-Env frontier, which BFS and best-first always take.
	if opt.Strategy == DFS && !opt.NoVM && !opt.RecordTree && !opt.RecordTrace {
		it.onTrail = true
		it.trail.Init(engine.TrailConfig{
			DB:            db,
			Weights:       ws,
			MaxDepth:      opt.MaxDepth,
			Tabler:        opt.Tabler,
			Ctx:           ctx,
			Learn:         opt.Learn,
			Prune:         opt.Prune,
			PruneSlack:    opt.PruneSlack,
			MaxExpansions: it.maxExp,
			Prof:          opt.Prof,
			Live:          opt.Live,
		}, goals)
		it.queryVars = it.trail.QueryVars()
		return it, nil
	}
	it.exp = *engine.NewExpander(db, ws)
	exp := &it.exp
	exp.Ctx = ctx
	exp.Tabler = opt.Tabler
	exp.NoVM = opt.NoVM
	exp.Prof = opt.Prof
	exp.RecordTree = opt.RecordTree || opt.RecordTrace
	if opt.MaxDepth > 0 {
		exp.MaxDepth = opt.MaxDepth
	}
	it.queryVars = term.VarsOf(goals)
	if opt.RecordTree {
		it.tb = newTreeBuilder(goals)
	}
	it.frontier = frontier{s: opt.Strategy, items: exp.Open()}
	it.frontier.push(exp.Root(goals))
	return it, nil
}

// iters recycles iterators: the views they lend point into them, so each
// would otherwise be a heap allocation per run. Close clears one before
// it goes back, so the pool keeps nothing of a finished run.
var iters = sync.Pool{New: func() any { return new(Iter) }}

// Close ends the run if it is still going and hands the iterator back to
// the pool NewIter draws from, keeping only the terms array, cleared.
// Neither the iterator nor a view it lent may be used afterwards; what a
// pull returned detached stays valid.
func (it *Iter) Close() {
	if !it.done {
		it.finish(nil)
	}
	clear(it.terms)
	*it = Iter{terms: it.terms[:0]}
	iters.Put(it)
}

// Tree returns the search tree recorded so far when Options.RecordTree
// was set, nil otherwise. The tree grows as the iterator is pulled.
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

// Stats returns the work counters accumulated so far: the trail
// machine's own, or the ones pull keeps on the Env frontier.
func (it *Iter) Stats() engine.Stats {
	if it.onTrail {
		return it.trail.Stats()
	}
	s := it.stats
	s.VMDispatched = it.exp.VMDispatched
	return s
}

// NextAnswer produces the next solution as a view over the run's live
// bindings, valid until the next pull — a trail run's store itself, or
// the solution node's persistent environment on the Env frontier;
// engine.Answer.Value and Solution detach what a caller keeps. ok is
// false when the search is over: exhausted or capped (err nil), or
// aborted (err non-nil, e.g. a LimitError or the context's error). After
// ok=false, further calls return the same result.
func (it *Iter) NextAnswer() (engine.Answer, bool, error) {
	ok, err := it.pull()
	if !ok {
		return engine.Answer{}, false, err
	}
	if it.onTrail {
		return it.trail.Answer(), true, nil
	}
	return it.answer(), true, nil
}

// answer reads the Env-frontier solution at it.cur in place.
func (it *Iter) answer() engine.Answer {
	if len(it.terms) == 0 {
		for _, v := range it.queryVars {
			it.terms = append(it.terms, v)
		}
	}
	n := it.cur
	return engine.Answer{Bound: n.Bound, Depth: n.Depth, Env: n.Env, Terms: it.terms, Vars: it.queryVars, Det: &it.det}
}

// pull runs the strategy's loop to the next solution and leaves it where
// NextAnswer reads it: in the trail machine's store, or at it.cur.
func (it *Iter) pull() (bool, error) {
	it.det = term.Detacher{}
	if it.done {
		return false, it.err
	}
	if it.opt.MaxSolutions > 0 && it.served >= it.opt.MaxSolutions {
		it.capped = true
		return it.finish(nil)
	}
	if it.onTrail {
		// The machine checks context, budget and prune bounds itself, in
		// the same order as the loop below.
		ok, err := it.trail.Advance()
		if !ok {
			return it.finish(err)
		}
		it.served++
		return true, nil
	}
	for it.frontier.len() > 0 {
		if err := it.exp.Ctx.Err(); err != nil {
			return it.finish(err)
		}
		if it.frontier.len() > it.stats.OpenMax {
			it.stats.OpenMax = it.frontier.len()
		}
		n := it.frontier.pop()
		// The prune runs at pop time, before the solution test: a solution
		// generated before an earlier pull served a better bound is cut
		// here and never reaches the caller (TestIterPruneStaleSolution
		// pins the behavior).
		if it.opt.Prune && it.haveBest && n.Bound > it.bestBound+it.opt.PruneSlack {
			it.stats.Pruned++
			if it.tb != nil {
				it.tb.status(n, "pruned")
			}
			continue
		}
		if n.IsSolution() {
			if it.opt.Learn {
				it.exp.Weights.RecordSuccess(it.chainOf(n))
			}
			if it.tb != nil {
				it.tb.status(n, "solution")
			}
			if !it.haveBest || n.Bound < it.bestBound {
				it.bestBound, it.haveBest = n.Bound, true
			}
			it.cur = n
			it.served++
			// Flush pending profiler attribution at the yield so time the
			// caller spends between pulls is not charged.
			it.exp.ProfFlush()
			return true, nil
		}
		if it.stats.Expanded >= it.maxExp {
			return it.finish(engine.LimitError{Limit: engine.Expansions, Bound: it.maxExp})
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
				it.exp.Weights.RecordFailure(it.chainOf(n))
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

// chainOf lays n's arc chain out root-first in the run's scratch, for the
// weight rules, which do not keep it.
func (it *Iter) chainOf(n *engine.Node) []kb.Arc {
	it.chain = n.Chain.AppendTo(it.chain[:0])
	return it.chain
}

// finish records the terminal state every later pull repeats, then
// recycles the engine's scratch, its profiler meter flushed and the open
// list's array handed back (no answer view is read past the pull that
// ends the run).
func (it *Iter) finish(err error) (bool, error) {
	it.done, it.err = true, err
	if it.onTrail {
		it.trail.Release()
	} else {
		it.exp.Release(it.frontier.items)
		it.frontier.items = nil // the scratch's again
	}
	return false, err
}

// Exhausted reports whether the whole tree was searched: every chain was
// followed to a solution or failure, so the solutions served are complete
// (for non-pruned runs). It is meaningful after a pull returned ok=false,
// and false for a run ended by an error or by the MaxSolutions cap — a
// capped run did not look further, even when the cap happened to equal
// the solution count.
func (it *Iter) Exhausted() bool { return it.done && it.err == nil && !it.capped }
