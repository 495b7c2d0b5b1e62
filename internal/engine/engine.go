// Package engine implements the resolution core shared by every B-LOG
// search strategy: OR-tree nodes (the paper's "chains"), node expansion by
// clause resolution, and the evaluable builtins.
//
// AND-conjunction is handled sequentially inside each node, exactly as the
// paper's section 3 model prescribes ("we consider AND-trees now only in a
// sequential way, in very much the same way Prolog does"): a node carries
// the whole remaining goal list and one expansion step resolves only its
// first goal. Every fan-out under a node is therefore an OR-alternative,
// and each root-to-leaf chain is either a solution or a failure.
//
// What outlives a chain leaves it through term.Detacher: an Answer is a
// view over the run's live bindings, and Answer.Value and Answer.Solution
// copy its values out under one renaming per answer, on the trail store
// and the persistent Env alike. Every machine hands its answers out as
// such views only, and a Solution, the values in query-variable order, is
// the one detached form. copy_term/2 is one term.Exporter pass.
//
// A trail run's root goals are pooled cells, as a clause activation's
// are: one pooled frame for the query variables, compounds from the
// compound pool. They leave the run only through Detacher (or Exporter,
// for a chain). A chain Split or Suspend exports is carved from the
// chain slab in the run's scratch (chainSlab), its renamed variables'
// frames among it.
//
// A trail run reads its context on its first arrival and then on every
// ctxPoll-th (32), so a cancelled run stops within 32 nodes. Untried
// assumes arc weights are non-negative, so that no choice point's bound
// is below an older one's, and reads the least bound at its cursor; a run
// that takes a negative weight scans instead. Answering exhaustive
// best-first in its pop order from a trail run needs the same assumption.
//
// The Env frontier (Expander) has one allocation path, the slab in its
// pooled scratch: nodes, goal cells, arcs and children lists, and through
// term.Cells the Env spine cells and the machine's frames and compounds.
// The slab's rule is that it hands out each cell once and never recycles
// it; chunks are ordinary Go memory, freed by the collector once nothing
// points into them. So no reuse can be observed: an Answer's Env stays
// valid however the scratch is reused. But one kept cell keeps its whole
// chunk, and the chunks its neighbours point into, so terms leave the run
// the way pooled ones do: the slab's frames and compounds are marked
// pooled, and Detacher copies them into Solutions, Answer values and a
// table's call patterns and answers. Within a run, dead cells keep the
// older chunks they point into, so a run takes at most a few chunks from
// each slab and then allocates from the heap (term.Slab). A chunk's
// untaken tail carries over to the next run that borrows the scratch.
// Only binding is tied to the run: an environment the run made binds on
// its goroutine, until Release.
//
// A run ends at the first limit it passes, with a LimitError. The limits
// table holds expansions 5 000 000, table_answers 2 000 000,
// negation_expansions 100 000 and builtin_term 1 000 000 (limit.go).
package engine

import (
	"context"
	"errors"
	"slices"
	"sync"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/unify"
	"blog/internal/vm"
	"blog/internal/weights"
)

// GoalEntry is a pending goal plus the static coordinate it came from,
// which names the arcs (weighted pointers) leaving it.
type GoalEntry struct {
	Goal   term.Term
	Caller kb.ClauseID // clause whose body produced this goal; kb.Query for query goals
	Pos    int         // body position within Caller
}

// GoalStack is a persistent (immutable) list of pending goals. Sibling
// OR-branches share tails, so pushing a clause body allocates only as many
// nodes as the body has goals.
type GoalStack struct {
	entry GoalEntry
	tail  *GoalStack
	size  int
}

// link chains the goal entries laid out in block onto s, block[0] on
// top, and returns the new stack: a body or a chain's goals as one
// allocation, each node still a distinct struct of the persistent list.
func link(block []GoalStack, s *GoalStack) *GoalStack {
	for i := len(block) - 1; i >= 0; i-- {
		block[i].tail, block[i].size = s, s.Len()+1
		s = &block[i]
	}
	return s
}

// queryGoals lays a query's goals out in block and links them onto the
// empty stack.
func queryGoals(block []GoalStack, goals []term.Term) *GoalStack {
	for i, g := range goals {
		block[i].entry = GoalEntry{Goal: g, Caller: kb.Query, Pos: i}
	}
	return link(block, nil)
}

// Top returns the first pending goal; ok is false for the empty stack.
func (s *GoalStack) Top() (GoalEntry, bool) {
	if s == nil {
		return GoalEntry{}, false
	}
	return s.entry, true
}

// Pop returns the stack without its first goal.
func (s *GoalStack) Pop() *GoalStack {
	if s == nil {
		return nil
	}
	return s.tail
}

// Len returns the number of pending goals.
func (s *GoalStack) Len() int {
	if s == nil {
		return 0
	}
	return s.size
}

// ArcList is a persistent list of the arcs chosen along a chain, stored
// leaf-first so extension is O(1); Slice reverses into root-first order
// for the weight update rules.
type ArcList struct {
	arc    kb.Arc
	parent *ArcList
	size   int
}

// Len returns the chain length in arcs.
func (l *ArcList) Len() int {
	if l == nil {
		return 0
	}
	return l.size
}

// Slice materializes the chain root-first.
func (l *ArcList) Slice() []kb.Arc { return l.AppendTo(make([]kb.Arc, 0, l.Len())) }

// AppendTo appends the chain root-first to dst.
func (l *ArcList) AppendTo(dst []kb.Arc) []kb.Arc {
	n := len(dst) + l.Len()
	dst = slices.Grow(dst, l.Len())[:n]
	for i, c := n-1, l; c != nil; i, c = i-1, c.parent {
		dst[i] = c.arc
	}
	return dst
}

// Last returns the leaf-most arc of the chain.
func (l *ArcList) Last() (kb.Arc, bool) {
	if l == nil {
		return kb.Arc{}, false
	}
	return l.arc, true
}

// Node is one OR-tree node: a resolvent with its environment, the chain of
// decisions that produced it, and the branch-and-bound bound B(n).
type Node struct {
	Goals *GoalStack
	Env   *term.Env
	Chain *ArcList
	Bound float64
	Depth int // arcs from the root
	// Seq is a creation serial used by strategies as a tiebreaker: LIFO
	// order for depth-first, FIFO for breadth-first/best-first.
	Seq uint64
	// Parent links the search tree for figure-3 style rendering; nil
	// unless the expander records trees.
	Parent *Node
	// Label describes the decision that created this node (the matched
	// clause or builtin), used only for rendering.
	Label string
}

// IsSolution reports whether the node has no pending goals.
func (n *Node) IsSolution() bool { return n.Goals.Len() == 0 }

// NodeHeap is a min-heap of open nodes ordered by (Bound, Seq): the
// best-first frontier, and the simulator's local and network pools. It
// sifts exactly as container/heap does, so the pop order is the same,
// ties included.
type NodeHeap []*Node

// Less orders the lower bound first, then the older node.
func (h NodeHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.Bound < b.Bound || a.Bound == b.Bound && a.Seq < b.Seq
}

// Push adds n.
func (h *NodeHeap) Push(n *Node) {
	*h = append(*h, n)
	h.up(len(*h) - 1)
}

// Pop removes and returns the least node.
func (h *NodeHeap) Pop() *Node { return h.Remove(0) }

// Remove removes and returns the node at index i.
func (h *NodeHeap) Remove(i int) *Node {
	s, n := *h, len(*h)-1
	if n != i {
		s[i], s[n] = s[n], s[i]
		if !s.down(i, n) {
			s.up(i)
		}
	}
	x := s[n]
	s[n], *h = nil, s[:n]
	return x
}

func (h NodeHeap) up(j int) {
	for i := (j - 1) / 2; i != j && h.Less(j, i); i = (j - 1) / 2 {
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts h[i0] down within h[:n], reporting whether it moved.
func (h NodeHeap) down(i0, n int) bool {
	i := i0
	for j := 2*i + 1; j < n && j > 0; j = 2*i + 1 {
		if j+1 < n && h.Less(j+1, j) {
			j++
		}
		if !h.Less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

// Tabler resolves calls to tabled predicates by answer-clause resolution:
// instead of expanding a tabled goal against program clauses, the engine
// asks the Tabler for the goal's memoized answers and unifies them with
// the goal one alternative at a time (choices). internal/table implements
// it; the interface lives here so the engine never imports the table
// subsystem. Implementations must be safe for concurrent use (parallel
// workers share one Tabler per query).
type Tabler interface {
	// IsTabled reports whether the predicate is under tabled evaluation.
	IsTabled(fn term.Sym, arity int) bool
	// Answers returns the answer terms of goal's table (goal resolved
	// under env), computing the table to completion first if needed; ctx
	// bounds that computation. Every answer is an instance of the goal's
	// variant pattern. The slice and its terms are shared and read-only:
	// a complete table's own, or a copy of a table still being produced.
	Answers(ctx context.Context, env *term.Env, goal term.Term) ([]term.Term, error)
}

// NegationTabler is implemented by Tablers that need a restricted view
// inside negation-as-failure sub-searches. Negation over a tabled goal is
// only sound against a final answer set; a Tabler in the middle of
// producing a recursive component returns a view that enforces that
// (rejecting non-stratified programs) instead of silently consuming a
// growing table.
type NegationTabler interface {
	Tabler
	// ForNegation returns the Tabler to use inside a \+ sub-search.
	ForNegation() Tabler
}

// Expander expands OR-tree nodes against a database and weight store.
// It carries counters and the bytecode machine's scratch space, so each
// goroutine must own its Expander.
type Expander struct {
	DB *kb.DB
	// Weights supplies arc weights for child bounds.
	Weights weights.Store
	// MaxDepth bounds chain length in arcs; longer chains fail. Zero
	// means the weight store's A constant.
	MaxDepth int
	// RecordTree links children to parents and fills Label for rendering.
	RecordTree bool
	// Tabler, when non-nil, intercepts calls to tabled predicates and
	// resolves them against memoized answers instead of program clauses.
	Tabler Tabler
	// Ctx cancels work inside a single Expand call (today: the nested
	// negation-as-failure search, bounded by its negation_expansions
	// limit, and tabled answer production). The per-node loops of the
	// search drivers check the context themselves between Expand calls;
	// nil means no cancellation.
	Ctx context.Context
	// NoVM forces Expand's tree-walking candidate loop, the differential
	// oracle for the bytecode machine and its only implementation. The
	// nested proof of a \+ goal runs compiled on the trail machine
	// regardless.
	NoVM bool
	// VMDispatched counts goals resolved on the compiled bytecode path.
	VMDispatched uint64
	// Prof, when non-nil, accumulates per-predicate profile counters with
	// interval attribution: each Expand charges the time since the previous
	// Expand to the previously expanded predicate. Callers that pause
	// between Expand calls (pull iterators) flush via ProfFlush so idle
	// time is not attributed.
	Prof *obs.Profiler

	seq   uint64
	sc    *expScratch // borrowed from scratches on first use; see Release
	mach  vm.Machine
	meter *obs.Meter // &sc.meter while profiling, else nil
}

// expScratch is what an Expander borrows: its predicate-code cache, its
// profiling meter, the slab its nodes come from and the backing array of
// its search's open list. Trail runs keep theirs in their pooled scratch.
type expScratch struct {
	code  vm.Cache
	meter obs.Meter
	slab  slab
	open  []*Node
}

var scratches = sync.Pool{New: func() any { return new(expScratch) }}

// scratch returns the expander's scratch, borrowing one on first use.
func (e *Expander) scratch() *expScratch {
	if e.sc == nil {
		e.sc = scratches.Get().(*expScratch)
		e.mach.Cells = &e.sc.slab.cells
	}
	return e.sc
}

// Open lends the search an empty open list on the scratch's array.
func (e *Expander) Open() []*Node { return e.scratch().open[:0] }

const maxKeptOpen = 1 << 12 // the largest open-list array a scratch keeps

// Release flushes the expander's meter and returns its scratch for reuse,
// with open, the list Open lent, cleared: its popped slots are nil
// already. The expander stays usable and borrows another scratch on next
// use; skipping Release leaves the scratch, and any unflushed counts, to
// the collector.
func (e *Expander) Release(open []*Node) {
	if e.sc != nil {
		e.meter.Release()
		e.meter = nil
		clear(open)
		e.sc.open = nil
		if cap(open) <= maxKeptOpen {
			e.sc.open = open[:0]
		}
		e.sc.slab.trim()
		e.mach.Cells = nil
		scratches.Put(e.sc)
		e.sc = nil
	}
}

// slab is the Env frontier's one allocator, in the expander's scratch:
// its nodes, goal cells, arcs and children lists, and through cells the
// Env spine cells and the machine's frames and compounds. Every cell is
// handed out once and never recycled (term.Slab), so an Answer's Env
// stays valid however the scratch is reused; what is kept past the run
// leaves it through Detacher, which copies the slab's frames and
// compounds.
type slab struct {
	nodes term.Slab[Node]
	goals term.Slab[GoalStack]
	arcs  term.Slab[ArcList]
	kids  term.Slab[*Node]
	cells term.Cells
}

// extend appends arc a at the leaf end of l.
func (s *slab) extend(l *ArcList, a kb.Arc) *ArcList {
	c := s.arcs.New()
	*c = ArcList{arc: a, parent: l, size: l.Len() + 1}
	return c
}

// one is a children list of c alone.
func (s *slab) one(c *Node) []*Node {
	k := s.kids.Take(1)
	k[0] = c
	return k
}

// keep clips children, taken with room for n, and gives the room it did
// not fill back to the slab.
func (s *slab) keep(children []*Node, n int) []*Node {
	s.kids.Back(n - len(children))
	return children[:len(children):len(children)]
}

func (s *slab) trim() {
	s.nodes.Trim()
	s.goals.Trim()
	s.arcs.Trim()
	s.kids.Trim()
	s.cells.Trim()
}

// NewExpander returns an expander with MaxDepth defaulted from the store.
func NewExpander(db *kb.DB, ws weights.Store) *Expander {
	return &Expander{DB: db, Weights: ws, MaxDepth: ws.Config().A}
}

// Root builds the root node for a query's goals, under an empty
// environment whose extensions come from the expander's slab.
func (e *Expander) Root(goals []term.Term) *Node {
	sl := &e.scratch().slab
	e.seq++
	r := sl.nodes.New()
	*r = Node{Goals: queryGoals(sl.goals.Take(len(goals)), goals), Env: sl.cells.Root(), Seq: e.seq, Label: "?-"}
	return r
}

// ErrDepthLimit marks chains cut off by MaxDepth. They are treated as
// failures for the weight rules, matching the A*N infinity coding: a chain
// of A arcs has bound at least A times... any single known solution.
var ErrDepthLimit = errors.New("engine: chain exceeded maximum depth")

// Expand resolves the first goal of n and returns its children. A nil,
// nil return means the node failed (no matching clause, failed builtin, or
// depth limit). Solutions must be detected by the caller via IsSolution
// before calling Expand.
func (e *Expander) Expand(n *Node) ([]*Node, error) {
	entry, ok := n.Goals.Top()
	if !ok {
		return nil, errors.New("engine: Expand called on solution node")
	}
	maxDepth := e.MaxDepth
	if maxDepth <= 0 {
		maxDepth = e.Weights.Config().A
	}
	if n.Depth >= maxDepth {
		return nil, ErrDepthLimit
	}
	goal := n.Env.Resolve(entry.Goal)
	sl := &e.scratch().slab

	if fn, arity, ok := term.PredOf(goal); ok {
		if e.Prof != nil {
			if e.meter == nil {
				e.meter = e.scratch().meter.Start(e.Prof)
			}
			e.meter.Note(fn, arity, 0, 0)
		}
		if fn == term.SymNeg && arity == 1 {
			// \+ runs on the trail machine (see negationConfig); its
			// argument is detached from n.Env first, so the nested run
			// reads nothing of n.Env and binds nothing in it.
			d := term.Detacher{Env: n.Env}
			inner := d.Detach(goal.(*term.Compound).Args[0])
			sub := NewTrailRun(negationConfig(TrailConfig{
				DB: e.DB, Weights: e.Weights, Tabler: e.Tabler, Ctx: e.Ctx,
			}, maxDepth), []term.Term{inner})
			e.meter.Pause()
			proved, err := sub.Advance()
			e.meter.Pause() // again: \+ is charged the nested run whole
			e.VMDispatched += sub.stats.VMDispatched
			sub.Release()
			if proved || err != nil {
				return nil, err
			}
			// No proof of the inner goal: \+ succeeds like a zero-weight builtin.
			return sl.one(e.child(n, n.Goals.Pop(), n.Env, goal, nil)), nil
		}
		if isBuiltin(fn, arity) {
			return e.expandBuiltin(n, goal, &biTable[fn][arity])
		}
		if e.Tabler != nil && e.Tabler.IsTabled(fn, arity) {
			return e.expandTabled(n, goal)
		}
		// Compiled path: everything the VM models was filtered out above;
		// tree recording keeps the walker so figure labels are unchanged.
		if !e.NoVM && !e.RecordTree {
			if pc := e.sc.code.Pred(e.DB, fn, arity); pc != nil {
				return e.expandCompiled(n, entry, goal, pc)
			}
		}
	}

	cands := e.DB.Candidates(n.Env, goal)
	children := sl.kids.Take(len(cands))[:0]
	for _, c := range cands {
		head, body := c.Activate()
		env, ok := unify.Unify(n.Env, goal, head)
		if !ok {
			continue
		}
		block := sl.goals.Take(len(body))
		for i, g := range body {
			block[i].entry = GoalEntry{Goal: g, Caller: c.ID, Pos: i}
		}
		arc := kb.Arc{Caller: entry.Caller, Pos: entry.Pos, Callee: c.ID}
		children = append(children, e.child(n, link(block, n.Goals.Pop()), env, goal, &arc))
	}
	return sl.keep(children, len(cands)), nil
}

// ProfFlush charges the profiler's pending attribution interval, publishes
// the counts and clears it. Search drivers call it at solution yields, and
// Release at the end, so time spent outside the engine is not charged.
func (e *Expander) ProfFlush() {
	e.meter.Flush(0, 0)
}

// expandCompiled is Expand's clause-resolution loop on the bytecode
// machine: switch-on-term candidate selection, head unification on the
// register machine, and body goals built from the registers. Candidate
// order is clause-ID order, identical to the tree-walking path, so the
// two engines produce the same children in the same order.
func (e *Expander) expandCompiled(n *Node, entry GoalEntry, goal term.Term, pc *vm.PredCode) ([]*Node, error) {
	e.VMDispatched++
	e.meter.Dispatch()
	sl := &e.sc.slab
	cands := pc.Select(n.Env, goal)
	children := sl.kids.Take(len(cands))[:0]
	for _, cc := range cands {
		env, ok := e.mach.Resolve(n.Env, goal, cc)
		if !ok {
			continue
		}
		c := cc.Clause()
		// The body goals are built by the machine from its compiled body
		// skeletons over the register file, into one block of goal cells.
		block := sl.goals.Take(len(c.Body))
		for i := range block {
			block[i].entry = GoalEntry{Goal: e.mach.BodyGoal(i), Caller: c.ID, Pos: i}
		}
		arc := kb.Arc{Caller: entry.Caller, Pos: entry.Pos, Callee: c.ID}
		children = append(children, e.child(n, link(block, n.Goals.Pop()), env, goal, &arc))
	}
	return sl.keep(children, len(cands)), nil
}

// child takes a child of n off the slab, with goals and env as given.
// A clause resolution passes the arc it took, which extends the chain,
// adds its weight to the bound and one to the depth; a machine decision
// (a builtin, \+ or a tabled answer) passes nil and adds none of them.
func (e *Expander) child(n *Node, goals *GoalStack, env *term.Env, goal term.Term, arc *kb.Arc) *Node {
	sl := &e.sc.slab
	e.seq++
	c := sl.nodes.New()
	*c = Node{Goals: goals, Env: env, Chain: n.Chain, Bound: n.Bound, Depth: n.Depth, Seq: e.seq}
	if arc != nil {
		c.Chain, c.Bound, c.Depth = sl.extend(n.Chain, *arc), n.Bound+e.arcWeight(n, *arc), n.Depth+1
	}
	if e.RecordTree {
		// Figure 3 labels a node with the goal it resolved, under its env.
		c.Parent, c.Label = n, env.Format(goal)
	}
	return c
}

// arcWeight computes the bound increment for taking arc from node n,
// consulting the conditional (context-sensitive) store when the weight
// store provides one — the "conditional information" extension sketched
// at the end of section 5 of the paper.
func (e *Expander) arcWeight(n *Node, arc kb.Arc) float64 {
	if cs, ok := e.Weights.(weights.ContextualStore); ok {
		if prev, has := n.Chain.Last(); has {
			return cs.WeightIn(prev, arc)
		}
		return cs.WeightIn(weights.RootContext, arc)
	}
	return e.Weights.Weight(arc)
}

// expandTabled resolves a tabled goal against its answer table: one child
// per memoized answer that unifies. Like a builtin, answer consumption is
// a machine decision, not a database pointer — it adds no arc, no weight
// and no depth; the sub-derivation the answer stands for was accounted
// when the table was produced. Termination on left-recursive programs
// follows: recursive calls consume finite answer sets instead of opening
// ever-deeper program-clause resolvents.
func (e *Expander) expandTabled(n *Node, goal term.Term) ([]*Node, error) {
	ctx := e.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Table production charges its own time inside the generator runs
	// (which share the profiler); pausing the meter around it keeps that
	// wall time from also being charged to the consumer's predicate.
	e.meter.Pause()
	answers, err := e.Tabler.Answers(ctx, n.Env, goal)
	e.meter.Skip()
	if err != nil {
		return nil, err
	}
	return e.stepChildren(n, goal, choices{n: len(answers), x: goal, answers: answers}), nil
}

// stepChildren is child over a decision's alternatives: one child per
// alternative that applies, each consuming the goal.
func (e *Expander) stepChildren(n *Node, goal term.Term, ch choices) []*Node {
	sl := &e.sc.slab
	children := sl.kids.Take(ch.n)[:0]
	for i := 0; i < ch.n; i++ {
		if env, ok := ch.try(n.Env, i); ok {
			children = append(children, e.child(n, n.Goals.Pop(), env, goal, nil))
		}
	}
	return sl.keep(children, ch.n)
}

// expandBuiltin evaluates a builtin goal. Builtins are decisions of the
// machine, not of the database, so they add no arc and zero weight; a
// failing builtin fails the whole chain, exactly like an unmatched goal.
// n.Env is persistent here, so a deterministic builtin hands back the
// extended environment and the node's own is untouched.
func (e *Expander) expandBuiltin(n *Node, goal term.Term, bi *biEntry) ([]*Node, error) {
	if bi.det == nil {
		ch, err := bi.nondet(n.Env, goal)
		if err != nil {
			return nil, err
		}
		return e.stepChildren(n, goal, ch), nil
	}
	env, ok, err := bi.det(n.Env, goal)
	if err != nil || !ok {
		return nil, err
	}
	return e.sc.slab.one(e.child(n, n.Goals.Pop(), env, goal, nil)), nil
}

// Stats are the work counters of a run, the one counter set every engine
// fills and every layer up to blog.Result carries. A TrailRun fills them
// at its arrivals, search.Iter on the Env frontier at its pops, and par
// workers and andpar groups sum theirs with Add.
type Stats struct {
	Expanded     uint64 // nodes whose first goal was resolved
	Generated    uint64 // children created
	Failures     uint64 // chains that died (no children)
	DepthCutoffs uint64 // chains cut by the depth bound
	Pruned       uint64 // chains cut by the branch-and-bound bound
	OpenMax      int    // peak open-list size on the Env frontier; 0 on the trail machine
	MaxDepth     int    // deepest chain expanded
	VMDispatched uint64 // goals resolved on the compiled bytecode path
}

// Add sums o into s, keeping the larger OpenMax and MaxDepth.
func (s *Stats) Add(o Stats) {
	s.Expanded += o.Expanded
	s.Generated += o.Generated
	s.Failures += o.Failures
	s.DepthCutoffs += o.DepthCutoffs
	s.Pruned += o.Pruned
	s.OpenMax = max(s.OpenMax, o.OpenMax)
	s.MaxDepth = max(s.MaxDepth, o.MaxDepth)
	s.VMDispatched += o.VMDispatched
}

// Solution is a detached answer (Answer.Solution): Values[i] is the
// value of query variable i, copied out of the run.
type Solution struct {
	Values []term.Term
	// Bound is the chain bound at the solution leaf.
	Bound float64
	// Depth is the chain length in arcs.
	Depth int
}

// Answer is a solution read in place, a view over the live bindings of
// the run that found it: query variable Vars[i] stands for Terms[i], read
// through Env. A trail run's view is its store, valid only until the run
// moves on; an Env run's is the solution node's persistent environment.
// Renderers read the view with term.AppendAnswer, Terms naming the
// variables that print by name; Value and Solution detach what must
// outlive it.
type Answer struct {
	Bound float64
	Depth int
	Env   *term.Env
	Terms []term.Term
	Vars  []*term.Var

	// Det, when set, is the Detacher every value of this answer shares:
	// the run's, zeroed when it moves on (TrailRun.Advance, search.Iter's
	// pull), so the values rename a pooled variable alike.
	Det *term.Detacher
}

// detacher returns the answer's Detacher — d when the run holds none —
// copying into cells, set up on first use, its query variables owned. A
// run's Env is never nil, so a zero Env marks a Detacher not yet set up.
func (a Answer) detacher(d *term.Detacher, cells *term.Cells) *term.Detacher {
	if a.Det != nil {
		d = a.Det
	}
	if d.Env == nil {
		d.Env = a.Env
		for j, t := range a.Terms {
			d.Own(t, a.Vars[j])
		}
	}
	d.Cells = cells
	return d
}

// Value returns query variable i's value detached from the view: it stays
// valid after the run moves on and after it ends. A query variable still
// unbound is that variable itself there, and a variable that occurs in
// several values of one answer is one variable in all of them.
func (a Answer) Value(i int) term.Term {
	var d term.Detacher
	return a.detacher(&d, nil).Detach(a.Terms[i])
}

// Solution detaches the whole answer, its values in query order, into
// cells: the values slice and every copied compound are carved from them,
// so a collector that keeps many answers keeps them in a few chunks, and
// the chunks live as long as any answer in them. Nil cells copy into the
// heap.
func (a Answer) Solution(cells *term.Cells) Solution {
	var local term.Detacher
	d := a.detacher(&local, cells)
	vals := cells.Terms(len(a.Terms))
	for i, t := range a.Terms {
		vals[i] = d.Detach(t)
	}
	return Solution{Values: vals, Bound: a.Bound, Depth: a.Depth}
}

// Format renders a solution as `X = v, Y = w` in variable order.
func (s Solution) Format(queryVars []*term.Var) string {
	return string(s.AppendText(nil, VarNames(queryVars)))
}

// AppendText appends the solution as `X = v, Y = w` to dst, naming the
// query variables by names (their print names, in query order), or
// `true` when the query has none; term.Append renders every value, each
// variable by its source name. It is the text the engines compare and
// order detached solutions by; the answers a client reads are laid out the
// same way by blog.Answer, whose values term.AppendAnswer renders.
func (s Solution) AppendText(dst []byte, names []string) []byte {
	if len(names) == 0 {
		return append(dst, "true"...)
	}
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, name...)
		dst = append(dst, " = "...)
		dst = term.Append(dst, s.Values[i], nil)
	}
	return dst
}

// VarNames returns the print names of the query variables, in query
// order.
func VarNames(queryVars []*term.Var) []string {
	names := make([]string, len(queryVars))
	for i, v := range queryVars {
		names[i] = v.String()
	}
	return names
}
