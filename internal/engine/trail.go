package engine

import (
	"context"
	"math"
	"sync"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/vm"
	"blog/internal/weights"
)

// This file is the destructive-binding twin of the Expander/search.Run
// pair: a resumable depth-first machine over one term.Store with a trail
// mark per choice point, instead of a frontier of persistent Nodes. It
// visits nodes in exactly the order sequential DFS visits them and keeps
// the same work counters at every arrival, so DFS on the persistent-Env
// frontier with the tree-walker (search.Options.NoVM) is its differential
// oracle. Program clauses resolve on compiled code only: the tree-walking
// clause path, the oracle for the bytecode machine, lives once, in
// Expander. Negation lives once, here: both engines prove the argument of
// a \+ goal with a nested TrailRun (negationConfig).
//
// The machine is "arrival"-driven: arriving at a node runs the same
// sequence search.Run runs on a popped node — context (every ctxPoll-th
// arrival), prune, solution, budget, depth, dispatch — then either
// descends into the first matching alternative (pushing a choice point,
// popped again when its last alternative is taken) or backtracks to the
// innermost choice point and tries its next alternative.
//
// Everything a run takes — trail entries, activation frames, compounds
// and goal-stack blocks — is freed by one rule: a choice point holds the
// marks of the trail and the three pools (marks), and going back to it
// undoes the trail and releases each pool to its mark (release). The
// root is what sits below mark 0.

// TrailConfig configures one TrailRun. DB, Weights and Ctx follow the
// Expander fields of the same names.
type TrailConfig struct {
	DB      *kb.DB
	Weights weights.Store
	// MaxDepth bounds chain length in arcs; <=0 means the weight store's
	// A constant.
	MaxDepth int
	Tabler   Tabler
	Ctx      context.Context
	// Learn applies the weight update rules as chains complete. It also
	// switches per-candidate arc weights to eager capture at choice-point
	// creation, because lazily computed weights would see the updates made
	// while earlier siblings ran — the persistent engine fixes child
	// bounds at generation time.
	Learn      bool
	Prune      bool
	PruneSlack float64
	// MaxExpansions bounds arrivals at non-solution nodes; 0 means no
	// bound. Passing it ends the run with the expansions LimitError.
	MaxExpansions uint64
	// RootBypassTabler makes the first dispatched goal resolve against
	// program clauses even when its predicate is tabled — how a table
	// generator derives answers for its own pattern instead of consuming
	// itself.
	RootBypassTabler bool
	// StepHook, when set, runs once per non-solution arrival, before the
	// expansion is counted; a non-nil return aborts the run with that
	// error. Table generators meter their derivation budget through it;
	// OR-parallel workers split and suspend the run from it.
	StepHook func() error
	// DepHook, when set, observes every predicate the run resolves
	// against program clauses (including goals inside negation sub-runs,
	// and predicates with no clauses yet), before looking up its code.
	// Table generators record their fixpoint's dependency stamps through
	// it; goals answered by builtins or by memoized tables are not
	// reported — the tabler tracks consumed tables itself and folds their
	// recorded stamps in.
	DepHook func(fn term.Sym, arity int)
	// Prof, when non-nil, accumulates per-predicate profile counters via
	// interval attribution: each dispatch charges the time and trail
	// binds/undos since the previous dispatch to the previously dispatched
	// predicate. Disabled (nil) costs one nil check per dispatch.
	Prof *obs.Profiler
	// Live, when non-nil, receives the expansion counter every 1024
	// arrivals, for the server's live query inspector.
	Live *obs.Live
	// limit is the one MaxExpansions reports: Expansions, or
	// NegationExpansions in a \+ sub-run (negationConfig).
	limit Limit
}

// trailShared is the state a run shares with its nested negation runs:
// one store, one frame pool, one compound pool, one goal-block pool, one
// bytecode machine and one predicate-code cache. Negation sub-searches run
// on the same store and pools under marks, exactly as the persistent
// engine's nested search runs on the same Env.
type trailShared struct {
	st     *term.Store
	pool   term.FramePool
	cpool  term.CompoundPool
	blocks goalBlockPool
	mach   vm.Machine
	code   vm.Cache
	meter  obs.Meter

	// spareCPs and spareChain hold the previous run's stack capacities
	// (contents dead, not zeroed — pushCP and takeAlt overwrite every
	// field they read) so the next run starts at steady-state capacity.
	spareCPs   []choicePoint
	spareChain []kb.Arc
	// negs are the negation sub-runs, one per nesting depth, kept with
	// their stack capacities (dispatchNegation).
	negs []*TrailRun

	// exp, hide and chains are Split's scratch: the renaming exporter, the
	// buffer holding the slots hidden above a choice point's mark, and the
	// slab the chains are carved from.
	exp    term.Exporter
	hide   []term.Term
	chains chainSlab

	// names and images are the root's scratch (rename): the query
	// variables' print names, and the terms they stand for in the run.
	names  []string
	images []term.Term
}

// sharedPool recycles trailShared scratch across runs. A recycled scratch
// arrives with warm frame/compound/goal-block free lists and — when the
// run is over the same database — a warm predicate-code cache, so repeated
// queries skip both the pool ramp-up and the code lookups of a cold cache.
var sharedPool = sync.Pool{New: func() any { return new(trailShared) }}

func getShared() *trailShared {
	sh := sharedPool.Get().(*trailShared)
	if sh.st == nil {
		sh.st = term.NewStore()
	} else {
		sh.st.Reset()
	}
	sh.mach.Pool = &sh.pool
	sh.mach.CPool = &sh.cpool
	sh.exp.Cells = &sh.chains.cells
	return sh
}

// chainSlab is where Split and Suspend carve the chains they export: each
// Chain, its candidate list and weights, goal block, query-variable images
// and arcs, and through cells its copied compounds and the frames of its
// renamed variables. Like the Expander's slab it hands out each cell once
// (term.Slab), so a chain stays valid on whichever worker resumes it
// however the scratch is reused. One writer binds a chain's frames: the
// run that resumes it (term.Exporter). Release trims the slab, and an
// OR-parallel run releases its workers only after every one has stopped.
// The frames and compounds are marked pooled, so an answer found under a
// chain detaches a copy and pins none of its chunks.
type chainSlab struct {
	chains  term.Slab[Chain]
	cands   term.Slab[*vm.CClause]
	weights term.Slab[float64]
	goals   term.Slab[GoalStack]
	arcs    term.Slab[kb.Arc]
	cells   term.Cells
}

func (s *chainSlab) trim() {
	s.chains.Trim()
	s.cands.Trim()
	s.weights.Trim()
	s.goals.Trim()
	s.arcs.Trim()
	s.cells.Trim()
}

// Release returns the run's pooled scratch — store discarded, everything
// taken released to the pools, free lists and predicate-code cache kept —
// for reuse by later runs. Call it once the run is over and nothing reads
// its Answer any more (solutions and table answers are detached copies, so
// they survive). After Release the run is dead: Advance reports the
// terminal state, Stats and Exhausted stay valid, but Answer and Live
// must not be used. Skipping Release is safe — the scratch
// is then simply garbage collected with the run.
func (r *TrailRun) Release() {
	sh := r.sh
	if sh == nil {
		return
	}
	r.sh = nil
	r.env = nil
	r.mode = trailDone
	sh.release(marks{})
	// Fold the run's pool peaks into the process-wide high-water marks —
	// once per run, off the hot path — and zero the per-run counters so a
	// recycled scratch starts the next run's accounting clean.
	term.RecordPoolHighWater(sh.pool.RunReset(), sh.cpool.RunReset())
	sh.chains.trim()
	r.meter.Release()
	r.meter = nil
	for _, sub := range sh.negs { // keep their stacks, not the query
		sub.cfg, sub.ctx = TrailConfig{}, nil
	}
	sh.spareCPs = r.cps[:0]
	sh.spareChain = r.chain[:0]
	r.cps = nil
	r.chain = nil
	sharedPool.Put(sh)
}

// goalBlockPool recycles the []GoalStack blocks that back a trail run's
// clause-body pushes (see link), keyed by length, by the rule of
// term.FramePool: every get is logged and release(mark) takes back all
// taken since mark.
type goalBlockPool struct {
	free [][][]GoalStack
	log  [][]GoalStack
}

func (p *goalBlockPool) get(n int) []GoalStack {
	var b []GoalStack
	if n < len(p.free) && len(p.free[n]) > 0 {
		l := p.free[n]
		b = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[n] = l[:len(l)-1]
	} else {
		b = make([]GoalStack, n)
	}
	p.log = term.Logged(p.log, b)
	return b
}

func (p *goalBlockPool) release(mark int) {
	lg := p.log
	for i := len(lg) - 1; i >= mark; i-- {
		n := len(lg[i])
		for n >= len(p.free) {
			p.free = append(p.free, nil)
		}
		p.free[n], lg[i] = term.Logged(p.free[n], lg[i]), nil
	}
	p.log = lg[:mark]
}

// marks are the positions of the store's trail and of the scratch's three
// pools at one moment: what a choice point goes back to.
type marks struct{ trail, frames, comps, blocks int }

func (sh *trailShared) mark() marks {
	return marks{sh.st.Mark(), sh.pool.Mark(), sh.cpool.Mark(), len(sh.blocks.log)}
}

// release goes back to m: it undoes the store's bindings since m, then
// hands every frame, compound and goal block taken since to its pool. A
// pool that took nothing since m costs no call: most failed heads and
// every tabled answer or between/3 value taken in place take nothing.
func (sh *trailShared) release(m marks) {
	sh.st.Undo(m.trail)
	if sh.pool.Mark() > m.frames {
		sh.pool.Release(m.frames)
	}
	if sh.cpool.Mark() > m.comps {
		sh.cpool.Release(m.comps)
	}
	if len(sh.blocks.log) > m.blocks {
		sh.blocks.release(m.blocks)
	}
}

type cpKind uint8

// A choice point is over clause candidates (cpVM), or over the
// alternatives of a machine decision — a tabled call, between/3, arg/3 —
// that add no arc (cpChoices).
const (
	cpVM cpKind = iota
	cpChoices
)

// choicePoint is one open OR-branch: the goal being resolved, the state
// to restore before trying the next alternative, and the untried
// candidate list.
type choicePoint struct {
	kind     cpKind
	entry    GoalEntry
	goal     term.Term  // resolved goal; stable across alternatives
	tail     *GoalStack // pending goals minus the one being resolved
	marks               // what each alternative starts from
	chainLen int
	depth    int
	bound    float64

	vmCands []*vm.CClause
	ch      choices
	// weights holds per-candidate arc weights captured eagerly under
	// Learn (see TrailConfig.Learn); nil means compute lazily.
	weights []float64
	next    int
}

const (
	trailArrive uint8 = iota
	trailBacktrack
	trailDone
)

// TrailRun is a resumable sequential DFS over a destructive binding
// store. Advance stops at one solution at a time, which Answer reads in
// place (Answer.Solution detaches it); the caller owns solution caps and
// stops calling when satisfied.
type TrailRun struct {
	cfg TrailConfig
	sh  *trailShared
	ctx context.Context
	env *term.Env // the store's distinguished node

	maxDepth int
	maxExp   uint64

	goals *GoalStack
	depth int
	bound float64
	chain []kb.Arc
	cps   []choicePoint
	// liveFrom and splitFrom are cursors into cps: no choice point below
	// liveFrom has an alternative left, and none below splitFrom a clause
	// alternative. Alternatives are only used up and choice points leave
	// from the top, so Untried and Split advance the cursors and pushCP
	// lowers them. untried counts the clause alternatives left; negArc
	// records an arc of negative weight taken (see Untried).
	liveFrom, splitFrom, untried int
	negArc                       bool
	arrivals                     uint32 // for the context poll
	nest                         int    // \+ nesting depth: the index of its sub-run

	queryVars []*term.Var
	images    []term.Term   // what queryVars stand for in the run: the renaming
	det       term.Detacher // the one the current solution's values share
	root      term.Term     // the first root goal as renamed, for Live

	stats     Stats
	bestBound float64
	haveBest  bool
	mode      uint8
	err       error
	exhausted bool
	// rootBypass is TrailConfig.RootBypassTabler, consumed by the first
	// dispatch.
	rootBypass bool
	// meter charges the profiler; nil when profiling is disabled.
	meter *obs.Meter
}

// NewTrailRun prepares a trail-store DFS for goals. The goals are renamed
// apart on entry (shared variables stay shared): the run binds
// destructively into the frames its goal terms reach, and the caller's
// terms — often parse-time structures reused across queries — must never
// be written. Solutions report bindings under the original variables.
func NewTrailRun(cfg TrailConfig, goals []term.Term) *TrailRun {
	r := new(TrailRun)
	r.Init(cfg, goals)
	return r
}

// Init is NewTrailRun on caller-provided storage, so a caller can hold
// its run by value.
func (r *TrailRun) Init(cfg TrailConfig, goals []term.Term) {
	r.init(cfg)
	r.rename(goals)
}

// rename lays the query's goals out as the run's root, renamed apart the
// way a clause activation is made, from the run's pools below mark 0: the
// query variables' images are the slots of one pooled frame, and the
// compounds and the goal block are pooled too, so Detacher copies the
// root's terms wherever they leave the run. images, in the scratch, is the
// run's only record of the renaming.
func (r *TrailRun) rename(goals []term.Term) {
	sh := r.sh
	r.queryVars, sh.names = term.VarsOf(goals), sh.names[:0]
	for _, v := range r.queryVars {
		sh.names = append(sh.names, v.Name)
	}
	sh.images = sh.pool.Get(sh.names).AppendVars(sh.images[:0])
	r.images = sh.images
	block := sh.blocks.get(len(goals))
	for i, g := range goals {
		block[i].entry = GoalEntry{Goal: sh.cpool.Rename(g, r.queryVars, r.images), Caller: kb.Query, Pos: i}
	}
	if r.goals = link(block, nil); r.goals != nil {
		r.root = r.goals.entry.Goal
	}
}

// init sets r up for cfg on a scratch from the pool, with no goals yet.
func (r *TrailRun) init(cfg TrailConfig) {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	maxDepth := cfg.MaxDepth
	if maxDepth <= 0 {
		maxDepth = cfg.Weights.Config().A
	}
	maxExp := cfg.MaxExpansions
	if maxExp == 0 {
		maxExp = math.MaxUint64
	}
	sh := getShared()
	// The choice-point and chain stacks grow with search depth; recycled
	// capacity (or a realistic starting size on a cold scratch) replaces
	// the doubling ramp — which costs more total bytes than the final
	// capacity — with at most one allocation per scratch lifetime.
	cps, chain := sh.spareCPs, sh.spareChain
	sh.spareCPs, sh.spareChain = nil, nil
	if cps == nil {
		cps = make([]choicePoint, 0, 32)
	}
	if chain == nil {
		chain = make([]kb.Arc, 0, 32)
	}
	*r = TrailRun{
		cfg:        cfg,
		sh:         sh,
		ctx:        cfg.Ctx,
		env:        sh.st.Env(),
		maxDepth:   maxDepth,
		maxExp:     maxExp,
		chain:      chain,
		cps:        cps,
		rootBypass: cfg.RootBypassTabler,
		meter:      sh.meter.Start(cfg.Prof),
	}
}

// QueryVars returns the original query variables in first-occurrence
// order.
func (r *TrailRun) QueryVars() []*term.Var { return r.queryVars }

// Stats returns the work counters accumulated so far.
func (r *TrailRun) Stats() Stats { return r.stats }

// Exhausted reports that every chain was followed to a solution or
// failure (meaningful after Advance returned ok=false with a nil error).
func (r *TrailRun) Exhausted() bool { return r.exhausted }

// Advance resumes the search until the next solution and stops there, its
// bindings in place for Answer to read until the run moves on. ok is false
// when the search is over: exhausted (err nil) or aborted (err non-nil).
// After ok=false, further calls return the same result.
func (r *TrailRun) Advance() (bool, error) {
	r.det = term.Detacher{}
	for {
		switch r.mode {
		case trailArrive:
			yielded, err := r.arrive()
			if err != nil {
				r.mode = trailDone
				r.err = err
				r.profFlush()
				return false, err
			}
			if yielded {
				r.mode = trailBacktrack
				// Flush pending profiler attribution at the yield so time
				// the caller spends between pulls is not charged.
				r.profFlush()
				return true, nil
			}
		case trailBacktrack:
			if !r.backtrack() {
				r.mode = trailDone
				r.exhausted = true
				r.profFlush()
				return false, nil
			}
			r.mode = trailArrive
		default:
			return false, r.err
		}
	}
}

// ctxPoll is how many arrivals a run makes per read of its context, the
// first among them, so workers sharing a context do not take its mutex at
// every node.
const ctxPoll = 32

// arrive runs the per-node sequence of search.Run on the machine's
// current (goals, depth, bound) state, in the same order: context, prune,
// solution, budget, step hook, depth, dispatch. It reports whether the
// node is a solution.
func (r *TrailRun) arrive() (bool, error) {
	if r.arrivals++; r.arrivals%ctxPoll == 1 {
		if err := r.ctx.Err(); err != nil {
			return false, err
		}
	}
	if r.cfg.Prune && r.haveBest && r.bound > r.bestBound+r.cfg.PruneSlack {
		r.stats.Pruned++
		r.mode = trailBacktrack
		return false, nil
	}
	if r.goals.Len() == 0 {
		if r.cfg.Learn {
			r.cfg.Weights.RecordSuccess(r.chain)
		}
		if !r.haveBest || r.bound < r.bestBound {
			r.bestBound, r.haveBest = r.bound, true
		}
		return true, nil
	}
	if r.stats.Expanded >= r.maxExp {
		return false, LimitError{r.cfg.limit, r.maxExp}
	}
	if h := r.cfg.StepHook; h != nil {
		if err := h(); err != nil {
			return false, err
		}
	}
	r.stats.Expanded++
	if l := r.cfg.Live; l != nil && r.stats.Expanded&1023 == 0 {
		l.Expanded.Store(r.stats.Expanded)
	}
	if r.depth > r.stats.MaxDepth {
		r.stats.MaxDepth = r.depth
	}
	if r.depth >= r.maxDepth {
		r.stats.DepthCutoffs++
		r.failChain()
		return false, nil
	}
	return false, r.dispatch()
}

// profFlush charges the profiler's pending attribution interval. Runs at
// solution yields and terminal states.
func (r *TrailRun) profFlush() {
	if r.meter != nil && r.sh != nil {
		b, u := r.sh.st.Counters()
		r.meter.Flush(b, u)
	}
}

// failChain records the current node as a dead chain and switches to
// backtracking, mirroring the Failures accounting of search.Run.
func (r *TrailRun) failChain() {
	r.stats.Failures++
	if r.cfg.Learn {
		r.cfg.Weights.RecordFailure(r.chain)
	}
	r.mode = trailBacktrack
}

// dispatch resolves the first pending goal, in the same precedence order
// as Expander.Expand: negation, builtin, tabled, program clauses.
func (r *TrailRun) dispatch() error {
	entry, _ := r.goals.Top()
	goal := r.env.Resolve(entry.Goal)
	bypass := r.rootBypass
	r.rootBypass = false
	fn, arity, ok := term.PredOf(goal)
	if !ok {
		// Unbound variable or integer goal: nothing resolves it.
		r.failChain()
		return nil
	}
	if m := r.meter; m != nil {
		b, u := r.sh.st.Counters()
		m.Note(fn, arity, b, u)
	}
	if fn == term.SymNeg && arity == 1 {
		return r.dispatchNegation(goal)
	}
	if isBuiltin(fn, arity) {
		return r.dispatchBuiltin(&biTable[fn][arity], goal)
	}
	if r.cfg.Tabler != nil && !bypass && r.cfg.Tabler.IsTabled(fn, arity) {
		// Production time is charged inside the generator runs, which share
		// the profiler; skip it so it is not double-counted here.
		r.meter.Pause()
		answers, err := r.cfg.Tabler.Answers(r.ctx, r.env, goal)
		r.meter.Skip()
		if err != nil {
			return err
		}
		r.dispatchChoices(goal, choices{n: len(answers), x: goal, answers: answers})
		return nil
	}
	// DepHook fires before the code lookup, so a stamp it records is never
	// newer than the clauses resolved here, and a predicate with no
	// clauses yet is recorded too (at stamp 0).
	if h := r.cfg.DepHook; h != nil {
		h(fn, arity)
	}
	pc := r.sh.code.Pred(r.cfg.DB, fn, arity)
	if pc == nil {
		// The compiler emits code for every predicate with a clause.
		r.failChain()
		return nil
	}
	return r.dispatchVM(entry, goal, pc)
}

// dispatchBuiltin evaluates a builtin goal. A deterministic builtin runs
// straight on the store's distinguished Env, binding in place: success is
// a deterministic step, failure fails the chain, and whatever the builtin
// had already bound is rewound by backtracking to the enclosing choice
// point's mark (a run with no choice point left is over, and its store is
// Reset before reuse). The two nondeterministic builtins report their
// alternatives, taken by dispatchChoices.
func (r *TrailRun) dispatchBuiltin(bi *biEntry, goal term.Term) error {
	if bi.det == nil {
		ch, err := bi.nondet(r.env, goal)
		if err != nil {
			return err
		}
		r.dispatchChoices(goal, ch)
		return nil
	}
	_, ok, err := bi.det(r.env, goal)
	if err != nil {
		return err
	}
	if !ok {
		r.failChain()
		return nil
	}
	r.goals = r.goals.Pop()
	r.stats.Generated++
	return nil
}

// dispatchChoices takes a machine decision's alternatives: the answers of
// a tabled call, or the solutions of between/3 and arg/3. One alternative
// is a deterministic step, binding in place under the enclosing choice
// point's mark; several open a choice point that tries one per backtrack.
// Like their Expander counterparts, these steps add no arc, weight or
// depth.
func (r *TrailRun) dispatchChoices(goal term.Term, ch choices) {
	switch ch.n {
	case 0:
		r.failChain()
	case 1:
		if _, ok := ch.try(r.env, 0); !ok {
			r.failChain()
			return
		}
		r.goals = r.goals.Pop()
		r.stats.Generated++
	default:
		cp := r.pushCP(cpChoices, GoalEntry{}, goal)
		cp.ch = ch
		if !r.tryNext(cp) {
			r.popFailedCP()
		}
	}
}

// dispatchVM resolves a goal against compiled clauses, creating a choice
// point over the switch-on-term candidate list.
func (r *TrailRun) dispatchVM(entry GoalEntry, goal term.Term, pc *vm.PredCode) error {
	r.stats.VMDispatched++
	r.meter.Dispatch()
	cands := pc.Select(r.env, goal)
	if len(cands) == 0 {
		r.failChain()
		return nil
	}
	cp := r.pushCP(cpVM, entry, goal)
	cp.vmCands = cands
	r.untried += len(cands)
	if r.cfg.Learn {
		ws := make([]float64, len(cands))
		for i, cc := range cands {
			ws[i] = r.arcWeight(kb.Arc{Caller: entry.Caller, Pos: entry.Pos, Callee: cc.Clause().ID})
		}
		cp.weights = ws
	}
	if !r.tryNext(cp) {
		r.popFailedCP()
	}
	return nil
}

// negationConfig is cfg set up for the nested run that proves the
// argument of a \+ goal, on either engine: \+(G) succeeds exactly when
// that run finds no proof of G. The run consumes tables through the
// ForNegation view, learns, prunes, profiles, steps and reports nothing
// (its wall time lands in the enclosing interval, charged to \+), resolves
// its goal as an ordinary call, and is bounded by the negation_expansions
// limit. It starts at depth 0 with the full maxDepth, not with the depth
// left to the enclosing chain, and adds no arc: negation is a machine
// decision, not a database pointer. As in standard Prolog, \+ over a
// goal with unbound variables means "no instance is provable", and it
// never binds them.
func negationConfig(cfg TrailConfig, maxDepth int) TrailConfig {
	if nt, ok := cfg.Tabler.(NegationTabler); ok {
		cfg.Tabler = nt.ForNegation()
	}
	cfg.MaxDepth = maxDepth
	cfg.MaxExpansions, cfg.limit = NegationExpansions.Default(), NegationExpansions
	cfg.Learn, cfg.Prune, cfg.RootBypassTabler = false, false, false
	cfg.StepHook, cfg.Prof, cfg.Live = nil, nil, nil
	return cfg
}

// dispatchNegation proves the argument of a \+ goal by a nested run on
// the same store and pools, the scratch's sub-run for its nesting depth,
// and then releases everything that run took, whether it found a proof
// or not.
func (r *TrailRun) dispatchNegation(goal term.Term) error {
	sh := r.sh
	if r.nest == len(sh.negs) {
		sh.negs = append(sh.negs, new(TrailRun))
	}
	sub, m, cfg := sh.negs[r.nest], sh.mark(), negationConfig(r.cfg, r.maxDepth)
	block := sh.blocks.get(1)
	block[0].entry = GoalEntry{Goal: goal.(*term.Compound).Args[0], Caller: kb.Query}
	*sub = TrailRun{cfg: cfg, sh: sh, ctx: cfg.Ctx, env: r.env, maxDepth: r.maxDepth, maxExp: cfg.MaxExpansions,
		nest: r.nest + 1, goals: link(block, nil), cps: sub.cps[:0], chain: sub.chain[:0]}
	r.meter.Pause()
	proved, err := sub.Advance()
	r.meter.Pause() // again: \+ is charged the nested run whole
	sh.release(m)
	r.stats.VMDispatched += sub.stats.VMDispatched
	if err != nil {
		return err
	}
	if proved {
		r.failChain()
		return nil
	}
	// No proof of the inner goal: \+ succeeds like a zero-weight builtin.
	r.goals = r.goals.Pop()
	r.stats.Generated++
	return nil
}

// pushCP opens a choice point capturing the state to restore before each
// alternative: trail mark, chain length, depth, bound and the goal tail.
// Fields are written in place (popped slots are recycled by the append,
// and every field is reassigned here), which keeps the large struct off
// the stack-copy path on this per-dispatch call.
func (r *TrailRun) pushCP(kind cpKind, entry GoalEntry, goal term.Term) *choicePoint {
	n := len(r.cps)
	r.liveFrom, r.splitFrom = min(r.liveFrom, n), min(r.splitFrom, n)
	if n < cap(r.cps) {
		r.cps = r.cps[:n+1]
	} else {
		r.cps = append(r.cps, choicePoint{})
	}
	cp := &r.cps[n]
	cp.kind = kind
	cp.entry = entry
	cp.goal = goal
	cp.tail = r.goals.Pop()
	cp.marks = r.sh.mark()
	cp.chainLen = len(r.chain)
	cp.depth = r.depth
	cp.bound = r.bound
	cp.vmCands = nil
	cp.ch = choices{}
	cp.weights = nil
	cp.next = 0
	return cp
}

// popFailedCP discards a choice point none of whose alternatives resolved
// — the node produced zero children, so the chain fails with the node's
// own (already restored) context. Popped slots are not zeroed: pushCP
// reinitializes every field on reuse, and what the stale references pin
// (candidate lists, the goal spine of a sibling branch) is bounded by the
// peak stack and dies with the run.
func (r *TrailRun) popFailedCP() {
	r.cps = r.cps[:len(r.cps)-1]
	r.failChain()
}

// tryNext commits the choice point's next succeeding alternative: state
// is already restored to the choice point (by pushCP at creation, by
// backtrack on revisit), each failed attempt releases what it took, and a
// success installs the child as the machine's current node. Taking the
// last alternative pops the choice point (the WAM's trust), so what that
// alternative took is released with the next older choice point's and
// a deterministic call leaves no choice point behind. Children are
// counted into Generated as they are taken — visit order equals
// generation order for DFS, so the counters agree with the persistent
// engine at every arrival.
func (r *TrailRun) tryNext(cp *choicePoint) bool {
	if cp.kind == cpChoices {
		for cp.next < cp.ch.n {
			i := cp.next
			cp.next++
			if _, ok := cp.ch.try(r.env, i); ok {
				r.goals = cp.tail
				r.stats.Generated++
				r.trust(cp)
				return true
			}
			r.sh.release(cp.marks)
		}
		return false
	}
	for cp.next < len(cp.vmCands) {
		i := cp.next
		cp.next++
		r.untried--
		cc := cp.vmCands[i]
		if _, ok := r.sh.mach.Resolve(r.env, cp.goal, cc); !ok {
			r.sh.release(cp.marks)
			continue
		}
		c := cc.Clause()
		var block []GoalStack
		if nb := len(c.Body); nb > 0 {
			block = r.sh.blocks.get(nb)
			for j := range block {
				block[j].entry = GoalEntry{Goal: r.sh.mach.BodyGoal(j), Caller: c.ID, Pos: j}
			}
		}
		r.takeAlt(cp, i, c.ID)
		r.goals = link(block, cp.tail)
		r.trust(cp)
		return true
	}
	return false
}

// trust pops cp, the innermost choice point, once it has no alternative
// left.
func (r *TrailRun) trust(cp *choicePoint) {
	if cp.left() == 0 {
		r.cps = r.cps[:len(r.cps)-1]
	}
}

// takeAlt records taking a clause alternative: extend the chain, price
// the arc, descend one level.
func (r *TrailRun) takeAlt(cp *choicePoint, i int, callee kb.ClauseID) {
	arc := kb.Arc{Caller: cp.entry.Caller, Pos: cp.entry.Pos, Callee: callee}
	var w float64
	if cp.weights != nil {
		w = cp.weights[i]
	} else {
		w = r.arcWeight(arc)
	}
	r.negArc = r.negArc || w < 0
	r.chain = append(r.chain, arc)
	r.bound = cp.bound + w
	r.depth = cp.depth + 1
	r.stats.Generated++
}

// arcWeight prices arc in the current chain context; the chain is at the
// parent's length whenever this runs, so the context arc is the parent's
// last decision, matching Expander.arcWeight.
func (r *TrailRun) arcWeight(arc kb.Arc) float64 {
	if cs, ok := r.cfg.Weights.(weights.ContextualStore); ok {
		if n := len(r.chain); n > 0 {
			return cs.WeightIn(r.chain[n-1], arc)
		}
		return cs.WeightIn(weights.RootContext, arc)
	}
	return r.cfg.Weights.Weight(arc)
}

// backtrack rewinds to the innermost choice point with an untried
// alternative: release to its marks, restore chain/depth/bound, and try
// the next candidate. Exhausted choice points (Split can empty one) pop
// silently — their node produced children, so it was no failure.
func (r *TrailRun) backtrack() bool {
	for len(r.cps) > 0 {
		cp := &r.cps[len(r.cps)-1]
		r.sh.release(cp.marks)
		r.chain = r.chain[:cp.chainLen]
		r.depth = cp.depth
		r.bound = cp.bound
		if r.tryNext(cp) {
			return true
		}
		r.cps = r.cps[:len(r.cps)-1]
	}
	return false
}

// Answer reads the solution Advance stopped at in place, valid until the
// run moves on: the next Advance, or Release. Its values share
// the run's one renaming for this solution.
func (r *TrailRun) Answer() Answer {
	return Answer{Bound: r.bound, Depth: r.depth, Env: r.env, Terms: r.images, Vars: r.queryVars, Det: &r.det}
}

// Live returns the store the run binds into and its first root goal as
// renamed, for reading the goal in place at the solution Advance stopped
// at: a table generator's answer is its one goal, so read. Both are the
// run's own: read them, never write them.
func (r *TrailRun) Live() (*term.Env, term.Term) { return r.env, r.root }
