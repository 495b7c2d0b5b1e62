package engine

import (
	"sync/atomic"

	"blog/internal/kb"
	"blog/internal/term"
	"blog/internal/vm"
)

// Chain is a detached piece of a trail run's OR-tree, for another run on
// another goroutine's store to resume: the untried alternatives of one
// choice point, or (Suspend) one node not yet expanded. It holds
// the goal entries with their Caller/Pos — first the goal the candidates
// resolve, then the goals pending below it — the images of the query
// variables, the arcs taken to reach it, its bound and depth, the
// remaining candidates and, under Learn, their captured weights. Its terms
// share no binding slot with the store they came from: the stack-copying
// side of the copying-vs-recomputation trade in OR-parallel Prolog.
type Chain struct {
	// Bound is B(n) at the choice point; the network orders chains by it.
	Bound float64

	depth   int
	goals   *GoalStack // the chain's own nodes, never pool blocks
	qvars   []*term.Var
	vars    []term.Term
	arcs    []kb.Arc
	vmCands []*vm.CClause
	weights []float64 // nil unless captured under Learn
}

// visits, when set, counts the choice points Split and Untried read; tests
// set it (export_test.go) to show the cursors keep that O(1) a step.
var visits *atomic.Uint64

func countVisits(n int) {
	if visits != nil {
		visits.Add(uint64(n))
	}
}

// left is how many alternatives cp has not tried.
func (cp *choicePoint) left() int { return len(cp.vmCands) + cp.ch.n - cp.next }

// Untried reports the work the run holds: n counts the untried clause
// alternatives (what Split can export), and least is the lowest bound
// among the node it is at and every choice point with alternatives left.
// While every arc weight the run has taken is non-negative, bounds never
// fall up the stack, so that is the bound of the oldest choice point with
// alternatives, at the cursor; a negative weight falls back to the scan.
func (r *TrailRun) Untried() (n int, least float64) {
	from, least := r.liveFrom, r.bound
	i := from
	for ; i < len(r.cps); i++ {
		if r.cps[i].left() > 0 {
			least = min(least, r.cps[i].bound)
			if !r.negArc {
				break
			}
		} else if i == r.liveFrom {
			r.liveFrom++
		}
	}
	countVisits(min(i+1, len(r.cps)) - min(from, len(r.cps)))
	return r.untried, least
}

// Split exports the untried alternatives of the run's oldest clause choice
// point that has any, minus those whose heads cannot unify, and truncates
// its candidate list: the run and the chain divide the subtree. The export
// reads the store as of the choice point's trail mark — the slots bound
// since are cleared, the terms copied with every unbound variable renamed,
// the slots restored; the trail is untouched. Alternative choice points
// (tabled answers, between/3, arg/3) are never exported. Split is for
// StepHook, which negation sub-runs do not call; nil means nothing to
// export.
func (r *TrailRun) Split() *Chain {
	from := r.splitFrom
	for ; r.splitFrom < len(r.cps); r.splitFrom++ {
		// An alternative choice point has no clause candidates, and
		// splitCP leaves none on cp.
		if cp := &r.cps[r.splitFrom]; cp.next < len(cp.vmCands) {
			if c := r.splitCP(cp); c != nil {
				countVisits(r.splitFrom + 1 - from)
				return c
			}
		}
	}
	countVisits(r.splitFrom - from)
	return nil
}

func (r *TrailRun) splitCP(cp *choicePoint) *Chain {
	sh, sl := r.sh, &r.sh.chains
	sh.hide = sh.st.Hide(cp.trail, sh.hide)
	defer sh.st.Unhide(cp.trail, sh.hide)
	left := len(cp.vmCands) - cp.next
	cands := sl.cands.Take(left)[:0]
	var ws []float64
	if cp.weights != nil {
		ws = sl.weights.Take(left)[:0]
	}
	m := sh.mark()
	for j := cp.next; j < len(cp.vmCands); j++ {
		_, ok := sh.mach.Resolve(r.env, cp.goal, cp.vmCands[j])
		sh.release(m)
		if !ok {
			continue
		}
		cands = append(cands, cp.vmCands[j])
		if ws != nil {
			ws = append(ws, cp.weights[j])
		}
	}
	// The candidate list is shared with the program: reslice.
	cp.vmCands = cp.vmCands[:cp.next]
	r.untried -= left
	sl.cands.Back(left - len(cands))
	if ws != nil {
		sl.weights.Back(left - len(ws))
	}
	if len(cands) == 0 {
		return nil
	}
	c := sl.chains.New()
	*c = Chain{Bound: cp.bound, depth: cp.depth, vmCands: cands[:len(cands):len(cands)], weights: ws[:len(ws):len(ws)]}
	r.export(c, cp.entry, cp.tail, cp.chainLen)
	return c
}

// Suspend exports all the run's remaining work — the node it is arriving
// at, then every clause choice point's untried alternatives, oldest first —
// for a StepHook that then abandons the run with an error, so the node is
// counted where it resumes. While an alternative choice point still holds
// untried alternatives, which never leave their run, it exports nothing
// (nil).
func (r *TrailRun) Suspend() []*Chain {
	for i := r.liveFrom; i < len(r.cps); i++ {
		if cp := &r.cps[i]; cp.kind == cpChoices && cp.next < cp.ch.n {
			return nil
		}
	}
	node := r.sh.chains.chains.New()
	*node = Chain{Bound: r.bound, depth: r.depth}
	r.export(node, r.goals.entry, r.goals.tail, len(r.chain))
	out := []*Chain{node}
	for c := r.Split(); c != nil; c = r.Split() {
		out = append(out, c)
	}
	return out
}

// export fills c with copies of first and the goals of tail (as one
// goal-stack block), the query variables' images and the first n arcs,
// read off the store as it stands.
func (r *TrailRun) export(c *Chain, first GoalEntry, tail *GoalStack, n int) {
	sl, x := &r.sh.chains, &r.sh.exp
	x.Reset(r.env)
	block := sl.goals.Take(1 + tail.Len())
	block[0].entry = first
	for i, s := 1, tail; s != nil; i, s = i+1, s.tail {
		block[i].entry = s.entry
	}
	for i := range block {
		block[i].entry.Goal = x.Copy(block[i].entry.Goal)
	}
	c.goals = link(block, nil)
	c.qvars = r.queryVars
	c.vars = sl.cells.Terms(len(r.queryVars))
	for i := range c.vars {
		c.vars[i] = x.Copy(r.images[i])
	}
	c.arcs = sl.arcs.Take(n)
	copy(c.arcs, r.chain)
}

// InitChain is Init for a chain: r starts on c under cfg, on a pooled
// scratch (see Resume).
func (r *TrailRun) InitChain(cfg TrailConfig, c *Chain) {
	r.init(cfg)
	r.Resume(c)
}

// Resume restarts r — finished, or abandoned by its StepHook — on c with
// r's configuration and scratch, everything it took released to mark 0. A
// choice point's chain gets its choice point back over the exported
// candidates: the node was counted where it was expanded, and a chain none
// of whose candidates resolves ends without a failure, as the choice point
// would have in place. A node chain arrives at its node. Stats accumulate.
func (r *TrailRun) Resume(c *Chain) {
	r.sh.release(marks{})
	r.cps, r.liveFrom, r.splitFrom, r.untried = r.cps[:0], 0, 0, 0
	r.mode, r.err, r.exhausted, r.root = trailArrive, nil, false, nil
	r.queryVars, r.images = c.qvars, c.vars
	r.chain = append(r.chain[:0], c.arcs...)
	r.depth, r.bound, r.goals = c.depth, c.Bound, c.goals
	if len(c.vmCands) > 0 {
		cp := r.pushCP(cpVM, c.goals.entry, c.goals.entry.Goal)
		cp.vmCands, cp.weights = c.vmCands, c.weights
		r.untried = len(c.vmCands)
		r.mode = trailBacktrack
	}
}
