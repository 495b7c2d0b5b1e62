// Package search implements the three search disciplines the paper
// compares over the OR-tree: Prolog's depth-first search (the baseline of
// section 2), breadth-first search, and B-LOG's weighted best-first
// branch-and-bound search (sections 3-5), together with the driver that
// applies the weight update rules as chains complete. The pull iterator
// Iter is the one sequential run path: it lends each answer as an
// engine.Answer view, and Run drains an iterator from the pool solve
// draws from too.
package search

import (
	"context"
	"fmt"
	"slices"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/weights"
)

// Strategy selects the search discipline. It is the system's one
// strategy enum: solve and the blog facade alias it. Parallel names the
// OR-parallel engine (internal/par), which solve routes there; an Iter
// runs the three sequential ones.
type Strategy int

const (
	// DFS expands the most recently generated node first, taking clause
	// alternatives in source order: Prolog's search.
	DFS Strategy = iota
	// BFS expands nodes in generation order.
	BFS
	// BestFirst expands the open node with the least bound, the B-LOG
	// discipline.
	BestFirst
	// Parallel is the OR-parallel engine: goroutine workers each running
	// depth-first trail-store segments and trading detached chains
	// through a bound-ordered network.
	Parallel
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	case BestFirst:
		return "best-first"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy resolves the command-line/REPL spellings of a strategy.
// Its error is the text blogd's 400 answer carries.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "dfs":
		return DFS, nil
	case "bfs":
		return BFS, nil
	case "best", "best-first":
		return BestFirst, nil
	case "parallel":
		return Parallel, nil
	}
	return 0, fmt.Errorf("solve: unknown strategy %q", name)
}

// Options configures a search run.
type Options struct {
	Strategy Strategy
	// MaxSolutions stops the search after this many solutions; 0 finds all.
	MaxSolutions int
	// MaxExpansions bounds work; 0 takes the expansions default.
	MaxExpansions uint64
	// Learn applies the section-5 weight update rules to the store as
	// chains complete.
	Learn bool
	// Prune cuts open nodes whose bound exceeds the best solution found
	// so far (strict branch and bound). Sound only when weights satisfy
	// the section-4 requirements; with heuristic weights it may lose
	// solutions, which experiment E3 quantifies.
	Prune bool
	// PruneSlack widens the pruning threshold: a node survives while
	// bound <= best + PruneSlack.
	PruneSlack float64
	// RecordTree builds a Tree of the entire search for rendering.
	RecordTree bool
	// RecordTrace collects figure-1 style resolution trace lines.
	RecordTrace bool
	// MaxDepth bounds chain length; 0 uses the store's A constant.
	MaxDepth int
	// Tabler, when non-nil, resolves declared tabled predicates against
	// memoized answer tables (see internal/table) instead of program
	// clauses.
	Tabler engine.Tabler
	// NoVM runs the differential oracle: the tree-walking resolution path
	// instead of the compiled bytecode engine, on the persistent-Env
	// frontier, so it takes DFS off the trail machine. It is the one
	// oracle switch, for every sequential strategy.
	NoVM bool
	// Prof, when non-nil, accumulates per-predicate profile counters on
	// either binding representation. Nil (the default) costs one nil
	// check on the hot path.
	Prof *obs.Profiler
	// Live, when non-nil, receives periodic expansion-count updates for
	// the live query inspector.
	Live *obs.Live
}

// Result is the outcome of a search run.
type Result struct {
	Solutions []engine.Solution
	Stats     engine.Stats
	// Exhausted is true when every chain was followed to a solution or
	// failure, so the solution list is complete (for non-pruned runs). A
	// run stopped by MaxSolutions is never exhausted; see Iter.Exhausted.
	Exhausted bool
	// Tree is the recorded search tree when Options.RecordTree was set.
	Tree *Tree
	// Trace holds figure-1 style lines when Options.RecordTrace was set.
	Trace []string
	// QueryVars are the variables of the query in first-occurrence order.
	QueryVars []*term.Var

	cells term.Cells // what Solutions are detached into
}

// Run searches for solutions to goals over db guided by ws: the batch
// form of the one sequential path, an Iter drained into a Result. A
// cancelled or deadlined ctx aborts the search between node expansions
// and returns the context's error with the work done so far, as do a
// passed limit (engine.LimitError) and engine errors. The solutions are
// detached into cells the Result holds, a few chunks for all of them.
func Run(ctx context.Context, db *kb.DB, ws weights.Store, goals []term.Term, opt Options) (*Result, error) {
	it, err := NewIter(ctx, db, ws, goals, opt)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	res := &Result{QueryVars: it.queryVars}
	a, ok, err := it.NextAnswer()
	for ; ok; a, ok, err = it.NextAnswer() {
		res.Solutions = append(res.Solutions, a.Solution(&res.cells))
	}
	res.Stats, res.Exhausted, res.Tree, res.Trace = it.Stats(), it.Exhausted(), it.Tree(), it.Trace()
	return res, err
}

// traceLine renders one resolution step in the style of figure 1:
// the pending goals, then each match found for the first goal.
func traceLine(n *engine.Node, children []*engine.Node) string {
	goals := ""
	for s, i := n.Goals, 0; s != nil && i < 4; i++ {
		e, _ := s.Top()
		if i > 0 {
			goals += ","
		}
		goals += n.Env.Format(e.Goal)
		s = s.Pop()
	}
	line := "?- " + goals + " -> " + children[0].Label
	for _, c := range children[1:] {
		line += " | " + c.Label
	}
	return line
}

// frontier is the open list: a stack for depth-first, a queue for
// breadth-first, and for best-first the engine's (Bound, Seq) heap, so
// equal bounds expand in generation order and a uniform store
// degenerates gracefully to breadth-first. A popped slot is nilled, so
// the array holds no node past the list's length.
type frontier struct {
	s     Strategy
	items engine.NodeHeap
	head  int // breadth-first: the queue's front
}

func (f *frontier) push(n *engine.Node) {
	if f.s == BestFirst {
		f.items.Push(n)
		return
	}
	f.items = append(f.items, n)
}

func (f *frontier) pop() *engine.Node {
	switch f.s {
	case BestFirst:
		return f.items.Pop()
	case BFS:
		n := f.items[f.head]
		f.items[f.head] = nil
		if f.head++; f.head > 1024 && f.head*2 > len(f.items) {
			k := copy(f.items, f.items[f.head:])
			clear(f.items[k:])
			f.items, f.head = f.items[:k], 0
		}
		return n
	}
	return f.items.Remove(len(f.items) - 1) // depth-first: the stack's top
}

func (f *frontier) len() int { return len(f.items) - f.head }

// EnumerateOutcomes exhaustively searches (DFS) and returns every complete
// chain as a weights.Outcome — the input the section-4 theoretical solver
// needs. It is a learning Run over a uniform store whose weight rules
// record each chain instead of learning from it.
func EnumerateOutcomes(ctx context.Context, db *kb.DB, goals []term.Term, maxDepth int) ([]weights.Outcome, error) {
	cfg := weights.DefaultConfig()
	if maxDepth > 0 {
		cfg.A = maxDepth
	}
	rec := &outcomeRecorder{Uniform: weights.NewUniform(cfg)}
	if _, err := Run(ctx, db, rec, goals, Options{Strategy: DFS, Learn: true}); err != nil {
		return nil, err
	}
	return rec.outcomes, nil
}

// outcomeRecorder is a uniform store that appends a copy of every chain
// the weight rules are applied to (the engines lend the slice for the
// call), skipping the empty chain of a root that fails outright.
type outcomeRecorder struct {
	*weights.Uniform
	outcomes []weights.Outcome
}

func (r *outcomeRecorder) RecordSuccess(chain []kb.Arc) {
	r.outcomes = append(r.outcomes, weights.Outcome{Chain: slices.Clone(chain), Success: true})
}

func (r *outcomeRecorder) RecordFailure(chain []kb.Arc) {
	if len(chain) > 0 {
		r.outcomes = append(r.outcomes, weights.Outcome{Chain: slices.Clone(chain)})
	}
}
