package table

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/weights"
)

// eval is one production run: the single goroutine holding the space's
// producer slot, computing the dependency group of the table it entered
// on. It implements engine.Tabler so that generator searches route nested
// tabled calls back here — the producer/consumer scheduling:
//
//   - a call to a complete table consumes its answers (consumer);
//   - the first call to an incomplete table becomes its generator and
//     iterates rounds until stable (producer);
//   - a recursive call to a table already being generated higher in the
//     evaluation stack consumes the answers known so far (follower).
//
// Completion detection is the linear-tabling rule: the leader — the
// outermost in-progress table — keeps re-running its generator (which
// transitively re-runs the generators of every incomplete table it
// depends on) until one full round changes no answer set anywhere in the
// group — no new answer and, for min(N) tables, no cost improvement; at
// that point the group has reached its fixpoint and every table in it is
// marked complete at once.
//
// Productions are stamped with increasing frame numbers, and every
// consumption of a not-yet-complete table records the frame of the oldest
// in-progress production it (transitively) reached. That one number
// answers both scheduling questions: a generator round that reached no
// in-progress production (lowFrame stays at maxFrame) is deterministic
// and needs no re-run, and a production whose rounds never reached a
// frame older than its own is final — safe to consult under negation even
// before the leader marks it complete.
type eval struct {
	space *Space
	h     *Handle
	ctx   context.Context

	// inProg holds tables whose generator is on the evaluation stack
	// (calls to them are followers); frames holds their production frame.
	inProg map[string]*Table
	frames map[string]int
	// group accumulates every table touched while incomplete; the leader
	// marks them all complete when the fixpoint is reached.
	group map[string]*Table
	// stable memoizes, per table, the group answer count at which its
	// generator last stabilized: re-entering it is a no-op until some
	// table in the group has since grown.
	stable map[string]uint64
	// active is set while the leader's require is on the stack.
	active bool
	// nextFrame stamps productions in stack order; curFrame is the frame
	// of the innermost require in progress.
	nextFrame int
	curFrame  int
	// lowFrame accumulates, per generator round, the oldest in-progress
	// frame the round's consumptions reached (maxFrame = none).
	lowFrame int
	// truncConsumed records that this production consumed a previously
	// completed table that was depth-truncated, so the group built on it
	// inherits the truncation.
	truncConsumed bool
	// nonMonotone records that this production reached a \+ or consumed
	// a non-monotone or min(N) table: a cheaper edge replaces a min(N)
	// cost, and the answers built on the old one would linger. See complete.
	nonMonotone bool
	// added counts answer-set *changes* anywhere during this eval: new
	// answers and, for min(N) tables, cost improvements that replaced a
	// memoized answer. Counting value changes — not just answer counts —
	// is what keeps the leader iterating while a round only lowers
	// existing costs; see addMinAnswer.
	added uint64
	// steps counts generator expansions and answer consumptions against
	// the budget.
	steps uint64
	// deps accumulates the production's dependency stamps: every
	// predicate a generator resolved against program clauses, at its
	// stamp when first resolved (via the engine's DepHook, which fires
	// before the code lookup, so a recorded stamp is never newer than the
	// clauses used), plus the recorded stamps of the tables it consumed —
	// which makes the recorded set transitive.
	deps map[kb.PredKey]uint64

	// Limits snapshotted from the space at creation, so a concurrent
	// Reconfigure cannot change them mid-production.
	ws       weights.Store
	maxDepth int
	budget   uint64
	// reqID is the producing query's request ID (obs.WithRequestID),
	// stamped on the lifecycle events this production emits.
	reqID string
	// key and vars are the reused buffers derived answers are encoded
	// into (appendVariantKey), so a duplicate costs no allocation.
	key  []byte
	vars []*term.Var
}

// maxFrame means "reached no in-progress production".
const maxFrame = math.MaxInt

func newEval(h *Handle, ctx context.Context) *eval {
	if ctx == nil {
		ctx = context.Background()
	}
	ev := &eval{
		space:    h.space,
		h:        h,
		ctx:      ctx,
		inProg:   make(map[string]*Table),
		frames:   make(map[string]int),
		group:    make(map[string]*Table),
		stable:   make(map[string]uint64),
		deps:     make(map[kb.PredKey]uint64),
		lowFrame: maxFrame,
		reqID:    obs.RequestID(ctx),
	}
	ev.ws, ev.maxDepth, ev.budget = h.space.limits()
	// A query with a deeper bound than the space default raises the
	// generator bound with it, so tabled evaluation honors MaxDepth the
	// way the untabled engine does.
	ev.maxDepth = max(ev.maxDepth, h.maxDepth)
	return ev
}

// require ensures t is usable by its caller: complete, in progress higher
// up the stack (follower consumption), or — here — generated to local
// stability, with the leader additionally detecting group completion.
func (ev *eval) require(t *Table) error {
	if t.complete.Load() || ev.inProg[t.key] != nil {
		return nil
	}
	if n, ok := ev.stable[t.key]; ok && n == ev.added {
		return nil // nothing in the group changed since it stabilized
	}
	myFrame := ev.nextFrame
	ev.nextFrame++
	ev.inProg[t.key] = t
	ev.frames[t.key] = myFrame
	if _, seen := ev.group[t.key]; !seen {
		// First entry this production: clear truncation state left by an
		// earlier, possibly shallower or interrupted production; the
		// rounds below re-derive it at the current bound. Answers an
		// interrupted production left behind carry the stamps it read.
		t.truncated = false
		ev.foldDeps(t.deps)
		ev.group[t.key] = t
	}
	leader := !ev.active
	if leader {
		ev.active = true
	}
	parentFrame := ev.curFrame
	ev.curFrame = myFrame
	prodLow := maxFrame
	// Fixpoint span under the query's open "search" phase; nested
	// productions of the dependency group appear as sibling spans, each
	// with per-round children carrying the answer-set delta.
	var fsp *obs.Span
	if ev.h.trace != nil {
		fsp = ev.h.trace.Span("search", "fixpoint "+t.pred)
	}
	round := 0
	var err error
	for {
		before := ev.added
		outerLow := ev.lowFrame
		ev.lowFrame = maxFrame
		round++
		rsp := fsp.Child(fmt.Sprintf("round %d", round))
		err = ev.runGenerator(t)
		rsp.SetCount("answers", int64(ev.added-before))
		rsp.End()
		roundLow := ev.lowFrame
		// Propagate conservatively to the enclosing round: it treats
		// nested reach as its own (extra rounds are safe; a wrong early
		// exit would not be).
		ev.lowFrame = min(outerLow, roundLow)
		prodLow = min(prodLow, roundLow)
		if err != nil {
			break
		}
		if ev.added == before {
			break // a full round changed nothing anywhere: stable
		}
		if roundLow == maxFrame {
			// New answers, but the round reached no in-progress
			// production: it was deterministic and exhaustive, so a
			// re-run cannot add more. Non-recursive tables finish in one
			// pass.
			break
		}
	}
	ev.curFrame = parentFrame
	fsp.SetCount("rounds", int64(round))
	fsp.End()
	t.rounds.Add(int64(round))
	if leader {
		// The final leader round re-ran every reachable incomplete
		// generator and derived nothing new: the group is at fixpoint. An
		// aborted group stays incomplete, keeping the stamps it read.
		if err == nil {
			ev.complete()
		} else {
			ev.space.setDeps(ev.group, ev.depList())
		}
		ev.active = false
	} else {
		// Allow a later leader round to re-enter and re-derive.
		delete(ev.inProg, t.key)
		delete(ev.frames, t.key)
		if err == nil {
			ev.stable[t.key] = ev.added
			// A production that never reached below its own frame is
			// final — its self-recursion converged within the rounds
			// above — which negation may rely on.
			t.independent = prodLow >= myFrame
		}
	}
	return err
}

// complete publishes the leader's group at fixpoint, with the recorded
// stamps, and journals each member's completion.
func (ev *eval) complete() {
	// Truncation anywhere in the group (or in a truncated complete table
	// it consumed) infects every member: their answers were derived
	// through the cut derivations, so all of them may be missing answers
	// and all must be re-produced for a deeper query.
	trunc := ev.truncConsumed
	for _, g := range ev.group {
		trunc = trunc || g.truncated
	}
	for _, g := range ev.group {
		g.truncated = trunc
		g.depth = ev.maxDepth
		g.monotone = !ev.nonMonotone && g.min == 0
	}
	// A group that completed already stale is not a successful
	// revalidation: the next touch derives it afresh.
	stale := ev.space.markComplete(ev.group, ev.depList())
	for _, g := range ev.group {
		if g.revalidating && !stale {
			ev.space.revalidated.Add(1)
			if g.extendedFrom > 0 {
				ev.space.extended.Add(1)
			}
		}
	}
	j := ev.space.journal.Load()
	if j == nil {
		return
	}
	for _, g := range ev.group {
		kind, detail := obs.KindTableCompleted, ""
		if stale {
			detail = "completed stale: an assert raced the fixpoint; re-derives on next touch"
		} else if g.revalidating {
			kind = obs.KindTableRevalidated
			if g.extendedFrom > 0 {
				detail = fmt.Sprintf("extended from %d answers", g.extendedFrom)
			}
		}
		j.Emit(obs.Event{
			Kind:      kind,
			RequestID: ev.reqID,
			Pred:      g.pred,
			Call:      g.pattern.String(),
			Count:     g.nAnswers.Load(),
			Bytes:     g.bytes.Load(),
			Rounds:    int(g.rounds.Load()),
			Detail:    detail,
		})
		if trunc {
			j.Emit(obs.Event{
				Kind:      obs.KindTableTruncated,
				RequestID: ev.reqID,
				Pred:      g.pred,
				Call:      g.pattern.String(),
				Count:     g.nAnswers.Load(),
				Cause:     "depth_bound",
				Detail:    fmt.Sprintf("depth %d", ev.maxDepth),
			})
		}
	}
}

// depList returns the recorded dependency stamps sorted by predicate.
func (ev *eval) depList() []dep {
	deps := make([]dep, 0, len(ev.deps))
	for k, stamp := range ev.deps {
		deps = append(deps, dep{k, stamp})
	}
	slices.SortFunc(deps, func(a, b dep) int {
		return cmp.Or(cmp.Compare(a.pred.Fn, b.pred.Fn), cmp.Compare(a.pred.Arity, b.pred.Arity))
	})
	return deps
}

// foldDeps merges stamps another production recorded into this one's.
// Where both recorded a predicate the older stamp wins, so a table built
// on stale input comes out stale.
func (ev *eval) foldDeps(deps []dep) {
	for _, d := range deps {
		if stamp, ok := ev.deps[d.pred]; !ok || d.stamp < stamp {
			ev.deps[d.pred] = d.stamp
		}
	}
}

// noteConsumption records that the current generator round consumed t's
// (not yet complete) answers, for the scheduling bookkeeping above.
func (ev *eval) noteConsumption(t *Table) {
	if f, ok := ev.frames[t.key]; ok {
		ev.lowFrame = min(ev.lowFrame, f) // follower: actively in progress
		return
	}
	// Pending table. An independent one is final — consuming it reaches
	// nothing in progress. A dependent one reached some in-progress
	// ancestor; its recorded frame numbers are stale across productions,
	// so treat it as reaching the outermost frame (conservative: forces
	// iteration and blocks finality, never the reverse).
	if !t.independent {
		ev.lowFrame = 0
	}
}

// runGenerator exhausts one depth-first derivation of t's call pattern,
// adding every solution to the table. The generator call itself resolves
// against program clauses — that is what produces answers — while calls
// inside those derivations (including the recursive variant calls that
// would otherwise loop) dispatch through ev (Answers below) and consume
// tables instead.
func (ev *eval) runGenerator(t *Table) error {
	// Generators are sequential inside the producer slot, so they run on
	// the destructive trail-store machine. RootBypassTabler makes the
	// root pattern resolve against program clauses (that is what derives
	// answers) while every call inside those derivations dispatches
	// through ev and consumes tables. The derivation budget is metered
	// through the step hook — one tick per non-solution node, exactly the
	// counting the persistent-Env generator used — because ev.steps is
	// shared across the whole fixpoint, not per run. The run renames the
	// pattern apart on entry, so the table's own pattern is the root, and
	// an answer is that root read in place.
	tr := engine.NewTrailRun(engine.TrailConfig{
		DB:               ev.space.db,
		Weights:          ev.ws,
		MaxDepth:         ev.maxDepth,
		Tabler:           ev,
		Ctx:              ev.ctx,
		MaxExpansions:    math.MaxUint64,
		RootBypassTabler: true,
		Prof:             ev.h.prof,
		StepHook: func() error {
			if ev.steps++; ev.steps > ev.budget {
				return engine.LimitError{Limit: engine.TableAnswers, Bound: ev.budget}
			}
			return nil
		},
		DepHook: func(fn term.Sym, arity int) {
			k := kb.PredKey{Fn: fn, Arity: arity}
			if _, ok := ev.deps[k]; !ok {
				ev.deps[k] = ev.space.db.Stamp(fn, arity)
			}
		},
	}, []term.Term{t.pattern})
	// Answers are detached as they are added, so the run's scratch can be
	// recycled as soon as the derivation is over.
	defer tr.Release()
	env, goal := tr.Live()
	var err error
	for {
		ok, nerr := tr.Advance()
		if nerr != nil {
			err = nerr
			break
		}
		if !ok {
			break
		}
		if aerr := ev.addLive(t, env, goal); aerr != nil {
			err = aerr
			break
		}
	}
	if tr.Stats().DepthCutoffs > 0 {
		// A derivation inside the generator (a non-tabled chain in a
		// clause body) hit the depth bound; answers past it are not
		// derived. Flag the table so the truncation is visible
		// (Info.Truncated) instead of silently memoized — exactly the
		// honesty the untabled engine's DepthCutoffs counter gives.
		t.truncated = true
	}
	return err
}

// ErrCost reports a derivation into a min(N) table whose cost argument
// did not resolve to an integer — the subsumption lattice is defined over
// integer costs, so a non-integer (or unbound) cost has no place in it.
var ErrCost = errors.New("table: min(N) answer cost is not an integer")

// addLive adds the answer a generator run stopped at: its renamed root
// goal read through the run's live store. The answer is encoded there first, so a
// duplicate, or a derivation a min(N) table subsumes, is dropped without
// being copied; a new one is copied out once, already canonical, its
// variables numbered as the key walk found them.
func (ev *eval) addLive(t *Table, env *term.Env, goal term.Term) error {
	if t.min > 0 {
		return ev.addMinAnswer(t, env, goal)
	}
	ev.key, ev.vars = appendVariantKey(ev.key[:0], ev.vars[:0], env, goal)
	if _, dup := t.answerSet[string(ev.key)]; dup {
		return nil
	}
	ans := canonical(env, ev.vars, goal)
	t.answerSet[string(ev.key)] = struct{}{}
	t.answers = append(t.answers, ans)
	t.nAnswers.Add(1)
	t.bytes.Add(term.ApproxBytes(ans))
	ev.noteAdded()
	return nil
}

// projKey encodes into ev.key the projection key of a min(N) derivation —
// goal read through env, its cost slot written as the integer
// 0 — so two derivations compete exactly when they agree on every other
// argument. It returns the derivation's cost, or false when goal has no
// integer at its cost position.
func (ev *eval) projKey(t *Table, env *term.Env, goal term.Term) (int64, bool) {
	c, ok := goal.(*term.Compound)
	if !ok || t.min > len(c.Args) {
		return 0, false
	}
	cost, ok := env.Resolve(c.Args[t.min-1]).(term.Int)
	if !ok {
		return 0, false
	}
	key, vars := appendFunctor(ev.key[:0], c), ev.vars[:0]
	for i, a := range c.Args {
		if i == t.min-1 {
			key = append(key, "i0"...)
		} else {
			key, vars = appendVariantKey(key, vars, env, a)
		}
		key = append(key, ',')
	}
	ev.key, ev.vars = append(key, ')'), vars
	return int64(cost), true
}

// dominated reports whether the derivation whose projection key projKey
// just encoded is no cheaper than t's memoized answer for it, counting it
// subsumed if so.
func (ev *eval) dominated(t *Table, cost int64) bool {
	idx, seen := t.projIdx[string(ev.key)]
	if !seen || cost < t.costs[idx] {
		return false
	}
	ev.space.subsumed.Add(1)
	ev.h.subsumed.Add(1)
	return true
}

// addMinAnswer folds one derived answer, goal read through env, into a min(N) table: the first answer for a projection of the
// non-cost arguments is memoized, a derivation dominated by the memoized
// cost is subsumed (dropped), and a strictly cheaper derivation replaces
// the memoized answer in place.
func (ev *eval) addMinAnswer(t *Table, env *term.Env, goal term.Term) error {
	cost, ok := ev.projKey(t, env, goal)
	if !ok {
		d := term.Detacher{Env: env}
		ans := d.Detach(goal)
		c, ok := ans.(*term.Compound)
		if !ok || t.min > len(c.Args) {
			return fmt.Errorf("%w: %s answer %s has no argument %d", ErrCost, t.pred, ans, t.min)
		}
		return fmt.Errorf("%w: %s answer %s carries %s at cost position %d", ErrCost, t.pred, ans, c.Args[t.min-1], t.min)
	}
	if ev.dominated(t, cost) {
		return nil
	}
	// The cost slot holds an Int, so projKey collected the answer's
	// variables in the order the canonical answer numbers them.
	canon := canonical(env, ev.vars, goal)
	idx, seen := t.projIdx[string(ev.key)]
	if !seen {
		t.projIdx[string(ev.key)] = len(t.answers)
		t.answers = append(t.answers, canon)
		t.costs = append(t.costs, cost)
		t.nAnswers.Add(1)
		t.bytes.Add(term.ApproxBytes(canon))
		ev.noteAdded()
		return nil
	}
	// Strictly cheaper: replace in place. The replacement is a value
	// change, so it counts toward ev.added — a generator round that only
	// improves costs must keep the dependency group open (the improved
	// answer can lower costs derived through it in the next round), even
	// though the answer *count* did not move. Retained bytes track the
	// swap (a cheaper answer can be structurally larger or smaller).
	t.bytes.Add(term.ApproxBytes(canon) - term.ApproxBytes(t.answers[idx]))
	t.answers[idx] = canon
	t.costs[idx] = cost
	ev.added++
	ev.space.improved.Add(1)
	ev.h.improved.Add(1)
	return nil
}

// noteAdded counts one new memoized answer on the eval, the space and the
// query handle.
func (ev *eval) noteAdded() {
	ev.added++
	ev.space.answers.Add(1)
	ev.h.answers.Add(1)
}

// charge counts answer consumptions against the derivation budget, so a
// runaway fixpoint (infinitely many answers) whose per-round expansion
// count is tiny still hits the budget instead of re-replaying ever-larger
// tables forever.
func (ev *eval) charge(consumed int) error {
	ev.steps += uint64(consumed)
	if ev.steps > ev.budget {
		return engine.LimitError{Limit: engine.TableAnswers, Bound: ev.budget}
	}
	return nil
}

// IsTabled implements engine.Tabler for generator expanders.
func (ev *eval) IsTabled(fn term.Sym, arity int) bool { return ev.space.db.IsTabled(fn, arity) }

// ForNegation implements engine.NegationTabler: negation sub-searches
// inside a production get the restricted negEval view. A \+ decision can
// flip when an assert adds answers, so the production is non-monotone.
func (ev *eval) ForNegation() engine.Tabler {
	ev.nonMonotone = true
	return negEval{ev}
}

// serveComplete replays a table completed before this production began.
func (ev *eval) serveComplete(t *Table) ([]term.Term, error) {
	if t.truncated {
		ev.truncConsumed = true
	}
	ev.nonMonotone = ev.nonMonotone || !t.monotone
	// The consumed table's answers flow into this production, so its
	// recorded stamps (already transitive) join ours.
	ev.foldDeps(t.deps)
	answers := ev.h.serveHit(t)
	return answers, ev.charge(len(answers))
}

// Answers implements engine.Tabler for calls made inside generators.
func (ev *eval) Answers(_ context.Context, env *term.Env, goal term.Term) ([]term.Term, error) {
	var buf keyBuf
	key, _ := appendVariantKey(buf.b[:0], buf.v[:0], env, goal)
	// Tables this eval is already producing resolve by identity through
	// the group, never through the live map: a concurrent Invalidate
	// swaps the map mid-production, and a fresh (empty) table under the
	// same key would silently truncate the fixpoint.
	t := ev.group[string(key)]
	if t == nil {
		if ct, ok := ev.space.lookup(key, ev.maxDepth); ok {
			return ev.serveComplete(ct)
		}
		t = ev.space.getOrCreate(key, env, goal, ev.h, ev.maxDepth, ev.reqID)
		if fn, arity, ok := term.PredOf(t.pattern); ok {
			ev.h.prof.TableMiss(fn, arity)
		}
	}
	if err := ev.require(t); err != nil {
		return nil, err
	}
	// Producer or follower consumption of the answers known so far; for
	// followers the enclosing rounds guarantee late answers are seen.
	if !t.complete.Load() {
		ev.noteConsumption(t)
	}
	return ev.consume(t)
}

// consume hands a table in this production's group to a consumer and
// charges its answers to the budget. A table still being produced gives a
// copy cut at the call: a later min(N) improvement replaces answers in
// place, and must not leak into a consumer already iterating.
func (ev *eval) consume(t *Table) ([]term.Term, error) {
	ev.nonMonotone = ev.nonMonotone || t.min > 0
	answers := t.answers
	if !t.complete.Load() {
		answers = slices.Clone(answers)
	}
	return answers, ev.charge(len(answers))
}

// ErrNonStratified rejects negation over a tabled predicate whose answer
// set is still growing — a negative loop through the recursive component
// being produced. Memoizing such a negation would freeze an unsound model
// into the shared table space, so the program is refused instead (the
// stratification restriction of standard tabling systems).
var ErrNonStratified = errors.New("table: negation over a tabled predicate in its own recursive component (non-stratified program)")

// negEval is the Tabler view used inside negation-as-failure sub-searches
// during a production. A \+ decision is only sound against a final answer
// set, so it serves complete tables and final (independently converged)
// pending tables, and rejects anything still growing.
type negEval struct{ ev *eval }

// IsTabled implements engine.Tabler.
func (n negEval) IsTabled(fn term.Sym, arity int) bool { return n.ev.IsTabled(fn, arity) }

// ForNegation implements engine.NegationTabler (negation within negation
// keeps the restriction).
func (n negEval) ForNegation() engine.Tabler { return n }

// Answers implements engine.Tabler under the finality restriction.
func (n negEval) Answers(_ context.Context, env *term.Env, goal term.Term) ([]term.Term, error) {
	ev := n.ev
	var buf keyBuf
	key, _ := appendVariantKey(buf.b[:0], buf.v[:0], env, goal)
	t := ev.group[string(key)]
	if t == nil {
		if ct, ok := ev.space.lookup(key, ev.maxDepth); ok {
			return ev.serveComplete(ct)
		}
		t = ev.space.getOrCreate(key, env, goal, ev.h, ev.maxDepth, ev.reqID)
	}
	if ev.inProg[t.key] != nil {
		return nil, ErrNonStratified
	}
	if err := ev.require(t); err != nil {
		return nil, err
	}
	if !t.complete.Load() && !t.independent {
		return nil, ErrNonStratified
	}
	return ev.consume(t)
}

var (
	_ engine.Tabler         = (*eval)(nil)
	_ engine.NegationTabler = (*eval)(nil)
	_ engine.NegationTabler = negEval{}
)
