// Package andpar implements the AND-parallel extensions of section 7 of
// the paper:
//
//   - Independent AND-parallelism: "conjunctions of goals which do not
//     share variables" run under the same OR-model concurrently; their
//     solution sets combine by cross product.
//   - Semi-join evaluation for shared-variable conjunctions: the producer
//     goal runs first, its bindings for the shared variables are projected,
//     and the SPD's marking capability restricts the consumer goal's
//     candidate clauses before the join — "in our implementation a highly
//     efficient semi-join algorithm can use the marking capabilities of
//     the SPD's".
//
// Goals that share variables and are not handled by the semi-join path
// "can be executed in sequence using the same scheme as Prolog", which is
// exactly what package search does; that is the baseline the experiment
// compares against.
package andpar

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/search"
	"blog/internal/sim"
	"blog/internal/spd"
	"blog/internal/term"
	"blog/internal/unify"
	"blog/internal/weights"
)

// Groups partitions goal indexes into connected components of the
// variable-sharing graph under env: goals in different groups share no
// unbound variable and are independent in the section-7 sense. Groups are
// returned in first-goal order; within a group, goal order is preserved.
func Groups(env *term.Env, goals []term.Term) [][]int {
	varsOf := make([][]*term.Var, len(goals))
	for i, g := range goals {
		varsOf[i] = term.VarsUnder(env, g, nil)
	}
	// Union-find over goal indexes.
	parent := make([]int, len(goals))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	owner := make(map[*term.Var]int)
	for i, vs := range varsOf {
		for _, v := range vs {
			if prev, ok := owner[v]; ok {
				union(prev, i)
			} else {
				owner[v] = i
			}
		}
	}
	groupsByRoot := make(map[int][]int)
	var order []int
	for i := range goals {
		r := find(i)
		if _, seen := groupsByRoot[r]; !seen {
			order = append(order, r)
		}
		groupsByRoot[r] = append(groupsByRoot[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groupsByRoot[r])
	}
	return out
}

// Result is the outcome of an AND-parallel conjunction evaluation.
type Result struct {
	// Solutions are the combined conjunction answers. Bindings merge the
	// groups' (variable-disjoint) maps; Bound and Depth sum across the
	// combined groups' chains and Chain concatenates them in group order,
	// so a combined solution reports the same cost accounting a sequential
	// search of the whole conjunction would.
	Solutions []engine.Solution
	// QueryVars are the conjunction's variables in first-occurrence order.
	QueryVars []*term.Var
	// GroupCount is the number of independent groups found.
	GroupCount int
	// GroupSolutions records each group's own solution count.
	GroupSolutions []int
	// Stats aggregates search work across groups (counters sum; the
	// frontier and depth peaks take the maximum over groups).
	Stats search.Stats
	// Exhausted reports that every group searched its whole tree and the
	// cross product was not truncated by MaxSolutions: the solution list
	// is complete.
	Exhausted bool
}

// Options configures parallel conjunction evaluation.
type Options struct {
	// Search configures each group's inner search.
	Search search.Options
	// Parallel runs independent groups concurrently (the experiment's
	// ablation switch; false runs the same decomposition sequentially).
	Parallel bool
	// MaxSolutions bounds the combined solution count (0 = all).
	MaxSolutions int
}

// Solve evaluates a conjunction by independent-group decomposition. Groups
// run concurrently when opt.Parallel is set, then combine by cross
// product. Any group with zero solutions makes the conjunction fail. A
// cancelled ctx aborts every group's search and returns the context error.
func Solve(ctx context.Context, db *kb.DB, ws weights.Store, goals []term.Term, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(goals) == 0 {
		return nil, errors.New("andpar: empty conjunction")
	}
	groups := Groups(nil, goals)
	res := &Result{GroupCount: len(groups)}
	for _, g := range goals {
		res.QueryVars = term.Vars(g, res.QueryVars)
	}

	outs := make([]*search.Result, len(groups))
	errs := make([]error, len(groups))
	// A panicking group stops the others through gctx and becomes the
	// conjunction's error; group goroutines run outside any caller's
	// recovery, so the panic must not escape them.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var panicMu sync.Mutex
	var panicErr error
	runGroup := func(gi int) {
		defer func() {
			if p := recover(); p != nil {
				panicMu.Lock()
				if panicErr == nil {
					panicErr = fmt.Errorf("andpar: group panic: %v", p)
				}
				panicMu.Unlock()
				cancel()
			}
		}()
		idx := groups[gi]
		sub := make([]term.Term, len(idx))
		for j, i := range idx {
			sub[j] = goals[i]
		}
		outs[gi], errs[gi] = search.Run(gctx, db, ws, sub, opt.Search)
	}
	if opt.Parallel {
		var wg sync.WaitGroup
		for gi := range groups {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				runGroup(gi)
			}(gi)
		}
		wg.Wait()
	} else {
		for gi := range groups {
			runGroup(gi)
		}
	}
	if panicErr != nil {
		return nil, panicErr
	}
	exhausted := true
	for gi, r := range outs {
		if errs[gi] != nil {
			return nil, errs[gi]
		}
		res.GroupSolutions = append(res.GroupSolutions, len(r.Solutions))
		res.Stats.Expanded += r.Stats.Expanded
		res.Stats.Generated += r.Stats.Generated
		res.Stats.Failures += r.Stats.Failures
		res.Stats.DepthCutoffs += r.Stats.DepthCutoffs
		res.Stats.Pruned += r.Stats.Pruned
		res.Stats.VMDispatched += r.Stats.VMDispatched
		if r.Stats.MaxFrontier > res.Stats.MaxFrontier {
			res.Stats.MaxFrontier = r.Stats.MaxFrontier
		}
		if r.Stats.MaxDepth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = r.Stats.MaxDepth
		}
		if !r.Exhausted {
			exhausted = false
		}
	}

	// Cross product. Groups are variable-disjoint, so bindings merge
	// cleanly; bounds/depths add and chains concatenate.
	combined := []engine.Solution{{Bindings: map[string]term.Term{}}}
	for gi, r := range outs {
		if len(r.Solutions) == 0 {
			res.Exhausted = exhausted // a proven failure is still complete
			return res, nil           // conjunction fails
		}
		next := make([]engine.Solution, 0, len(combined)*len(r.Solutions))
	cross:
		for _, base := range combined {
			for _, add := range r.Solutions {
				m := make(map[string]term.Term, len(base.Bindings)+len(add.Bindings))
				for k, v := range base.Bindings {
					m[k] = v
				}
				for k, v := range add.Bindings {
					m[k] = v
				}
				chain := make([]kb.Arc, 0, len(base.Chain)+len(add.Chain))
				chain = append(append(chain, base.Chain...), add.Chain...)
				next = append(next, engine.Solution{
					Bindings: m,
					Bound:    base.Bound + add.Bound,
					Depth:    base.Depth + add.Depth,
					Chain:    chain,
				})
				if opt.MaxSolutions > 0 && len(next) >= opt.MaxSolutions && gi == len(groups)-1 {
					break cross
				}
			}
		}
		combined = next
	}
	res.Solutions = combined
	truncated := false
	if opt.MaxSolutions > 0 {
		full := 1
		for _, n := range res.GroupSolutions {
			if full > opt.MaxSolutions {
				break // saturated: already past the cap
			}
			full *= n
		}
		truncated = full > opt.MaxSolutions
		if len(res.Solutions) > opt.MaxSolutions {
			res.Solutions = res.Solutions[:opt.MaxSolutions]
		}
	}
	res.Exhausted = exhausted && !truncated
	return res, nil
}

// SemiJoinReport is the outcome and cost accounting of a semi-join.
type SemiJoinReport struct {
	Solutions []map[string]term.Term
	// ProducerSolutions is |p| after evaluating the producer goal.
	ProducerSolutions int
	// ConsumerClauses is the consumer predicate's total clause count (the
	// naive candidate set).
	ConsumerClauses int
	// MarkedClauses is the candidate count after SPD mark restriction.
	MarkedClauses int
	// SPDCycles is the simulated disk time of the marking pass.
	SPDCycles sim.Time
	// JoinAttempts counts consumer-side unifications actually performed.
	JoinAttempts int
}

// SemiJoin evaluates the conjunction `producer, consumer` where the two
// goals share at least one variable and the consumer resolves against
// facts. It runs the producer with the given search options, projects the
// shared-variable bindings, marks matching consumer facts on the SPD
// (charging simulated disk time), and joins only against marked facts.
func SemiJoin(ctx context.Context, db *kb.DB, ws weights.Store, producer, consumer term.Term, disk *spd.SPD, opt search.Options) (*SemiJoinReport, error) {
	shared := sharedVars(producer, consumer)
	if len(shared) == 0 {
		return nil, errors.New("andpar: semi-join requires shared variables; use Solve for independent goals")
	}
	consPred, ok := term.Indicator(consumer)
	if !ok {
		return nil, fmt.Errorf("andpar: consumer %s is not callable", consumer)
	}
	consClauses := db.ClausesFor(consPred)
	for _, c := range consClauses {
		if !c.IsFact() {
			return nil, fmt.Errorf("andpar: semi-join consumer %s resolves against rule %s; only fact joins are supported", consPred, c)
		}
	}

	rep := &SemiJoinReport{ConsumerClauses: len(consClauses)}

	// Phase 1: evaluate the producer.
	prodRes, err := search.Run(ctx, db, ws, []term.Term{producer}, opt)
	if err != nil {
		return nil, err
	}
	rep.ProducerSolutions = len(prodRes.Solutions)
	if rep.ProducerSolutions == 0 {
		return rep, nil
	}

	// Phase 2: project shared-variable values and mark consumer facts
	// whose head could join any projected tuple.
	type proj map[string]term.Term
	projections := make([]proj, 0, len(prodRes.Solutions))
	for _, s := range prodRes.Solutions {
		p := proj{}
		for _, v := range shared {
			p[v.String()] = s.Bindings[v.String()]
		}
		projections = append(projections, p)
	}
	markOK := func(c *kb.Clause) bool {
		for _, p := range projections {
			// Build the consumer goal with shared vars bound to this
			// projection and test unifiability against the fact head.
			env := (*term.Env)(nil)
			okAll := true
			for _, v := range shared {
				val, ok := p[v.String()]
				if !ok {
					okAll = false
					break
				}
				env = env.Bind(v, val)
			}
			if !okAll {
				continue
			}
			head := c.ActivateHead()
			if unify.CanUnify(env, consumer, head) {
				return true
			}
		}
		return false
	}
	markedSet := make(map[kb.ClauseID]bool)
	if disk != nil {
		before := disk.Elapsed()
		disk.ClearMarks()
		disk.MarkWhere(func(b *spd.Block) bool {
			c := db.Clause(kb.ClauseID(b.ID))
			return c != nil && c.Pred == consPred && markOK(c)
		})
		for _, id := range disk.Marked() {
			markedSet[kb.ClauseID(id)] = true
		}
		rep.SPDCycles = disk.Elapsed() - before
	} else {
		for _, c := range consClauses {
			if markOK(c) {
				markedSet[c.ID] = true
			}
		}
	}
	rep.MarkedClauses = len(markedSet)

	// Phase 3: join each producer solution against marked facts only.
	var qvars []*term.Var
	qvars = term.Vars(producer, qvars)
	qvars = term.Vars(consumer, qvars)
	for _, s := range prodRes.Solutions {
		env := (*term.Env)(nil)
		valid := true
		for _, v := range prodRes.QueryVars {
			val, ok := s.Bindings[v.String()]
			if !ok {
				valid = false
				break
			}
			if _, isVar := val.(*term.Var); isVar {
				continue // producer left it free
			}
			env = env.Bind(v, val)
		}
		if !valid {
			continue
		}
		for _, c := range consClauses {
			if !markedSet[c.ID] {
				continue
			}
			rep.JoinAttempts++
			head := c.ActivateHead()
			e2, ok := unify.Unify(env, consumer, head)
			if !ok {
				continue
			}
			m := make(map[string]term.Term, len(qvars))
			for _, v := range qvars {
				m[v.String()] = e2.ResolveDeep(v)
			}
			rep.Solutions = append(rep.Solutions, m)
		}
	}
	return rep, nil
}

// sharedVars returns the variables occurring in both terms.
func sharedVars(a, b term.Term) []*term.Var {
	av := term.Vars(a, nil)
	bv := term.Vars(b, nil)
	var out []*term.Var
	for _, v := range av {
		for _, w := range bv {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// NestedLoopJoin is the naive baseline: join every producer solution
// against every consumer fact with no restriction. It returns the same
// solutions as SemiJoin plus the attempt count for comparison.
func NestedLoopJoin(ctx context.Context, db *kb.DB, ws weights.Store, producer, consumer term.Term, opt search.Options) (*SemiJoinReport, error) {
	consPred, ok := term.Indicator(consumer)
	if !ok {
		return nil, fmt.Errorf("andpar: consumer %s is not callable", consumer)
	}
	consClauses := db.ClausesFor(consPred)
	rep := &SemiJoinReport{ConsumerClauses: len(consClauses), MarkedClauses: len(consClauses)}
	prodRes, err := search.Run(ctx, db, ws, []term.Term{producer}, opt)
	if err != nil {
		return nil, err
	}
	rep.ProducerSolutions = len(prodRes.Solutions)
	var qvars []*term.Var
	qvars = term.Vars(producer, qvars)
	qvars = term.Vars(consumer, qvars)
	for _, s := range prodRes.Solutions {
		env := (*term.Env)(nil)
		for _, v := range prodRes.QueryVars {
			val, ok := s.Bindings[v.String()]
			if !ok {
				continue
			}
			if _, isVar := val.(*term.Var); isVar {
				continue
			}
			env = env.Bind(v, val)
		}
		for _, c := range consClauses {
			if !c.IsFact() {
				return nil, fmt.Errorf("andpar: consumer %s resolves against rule %s", consPred, c)
			}
			rep.JoinAttempts++
			head := c.ActivateHead()
			e2, ok := unify.Unify(env, consumer, head)
			if !ok {
				continue
			}
			m := make(map[string]term.Term, len(qvars))
			for _, v := range qvars {
				m[v.String()] = e2.ResolveDeep(v)
			}
			rep.Solutions = append(rep.Solutions, m)
		}
	}
	return rep, nil
}
