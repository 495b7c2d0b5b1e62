package spd

import (
	"context"
	"errors"
	"fmt"

	"blog/internal/kb"
	"blog/internal/search"
	"blog/internal/sim"
	"blog/internal/term"
	"blog/internal/unify"
	"blog/internal/weights"
)

// Semi-join evaluation for shared-variable conjunctions (section 7): the
// producer goal runs first, its bindings for the shared variables are
// projected, and the SPD's marking capability restricts the consumer
// goal's candidate clauses before the join — "in our implementation a
// highly efficient semi-join algorithm can use the marking capabilities of
// the SPD's". Independent conjunctions are package andpar's; the join here
// is the E8 exhibit's, measured against NestedLoopJoin.

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
// A nil disk marks in memory at no simulated cost.
func SemiJoin(ctx context.Context, db *kb.DB, ws weights.Store, producer, consumer term.Term, disk *SPD, opt search.Options) (*SemiJoinReport, error) {
	shared := sharedVars(producer, consumer)
	if len(shared) == 0 {
		return nil, errors.New("spd: semi-join requires shared variables; use andpar.Solve for independent goals")
	}
	consPred, ok := term.Indicator(consumer)
	if !ok {
		return nil, fmt.Errorf("spd: consumer %s is not callable", consumer)
	}
	consClauses := db.ClausesFor(consPred)
	for _, c := range consClauses {
		if !c.IsFact() {
			return nil, fmt.Errorf("spd: semi-join consumer %s resolves against rule %s; only fact joins are supported", consPred, c)
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
	// whose head could join any projected tuple. The consumer reads only
	// the shared variables, so a producer solution's bindings are its
	// projection.
	envs := make([]*term.Env, len(prodRes.Solutions))
	for i, s := range prodRes.Solutions {
		envs[i] = bindValues(prodRes.QueryVars, s.Values)
	}
	markOK := func(c *kb.Clause) bool {
		for _, env := range envs {
			head, _ := c.Activate()
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
		disk.MarkWhere(func(b *Block) bool {
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
	qvars = term.VarsUnder(nil, producer, qvars)
	qvars = term.VarsUnder(nil, consumer, qvars)
	for _, env := range envs {
		for _, c := range consClauses {
			if !markedSet[c.ID] {
				continue
			}
			rep.JoinAttempts++
			head, _ := c.Activate()
			e2, ok := unify.Unify(env, consumer, head)
			if !ok {
				continue
			}
			m := make(map[string]term.Term, len(qvars))
			d := term.Detacher{Env: e2}
			for _, v := range qvars {
				m[v.String()] = d.Detach(v)
			}
			rep.Solutions = append(rep.Solutions, m)
		}
	}
	return rep, nil
}

// bindValues binds vars[i] to vals[i], leaving a variable the producer
// left free unbound.
func bindValues(vars []*term.Var, vals []term.Term) *term.Env {
	var env *term.Env
	for i, v := range vars {
		if _, isVar := vals[i].(*term.Var); !isVar {
			env = env.Bind(v, vals[i])
		}
	}
	return env
}

// sharedVars returns the variables occurring in both terms.
func sharedVars(a, b term.Term) []*term.Var {
	av := term.VarsUnder(nil, a, nil)
	bv := term.VarsUnder(nil, b, nil)
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
		return nil, fmt.Errorf("spd: consumer %s is not callable", consumer)
	}
	consClauses := db.ClausesFor(consPred)
	rep := &SemiJoinReport{ConsumerClauses: len(consClauses), MarkedClauses: len(consClauses)}
	prodRes, err := search.Run(ctx, db, ws, []term.Term{producer}, opt)
	if err != nil {
		return nil, err
	}
	rep.ProducerSolutions = len(prodRes.Solutions)
	var qvars []*term.Var
	qvars = term.VarsUnder(nil, producer, qvars)
	qvars = term.VarsUnder(nil, consumer, qvars)
	for _, s := range prodRes.Solutions {
		env := bindValues(prodRes.QueryVars, s.Values)
		for _, c := range consClauses {
			if !c.IsFact() {
				return nil, fmt.Errorf("spd: consumer %s resolves against rule %s", consPred, c)
			}
			rep.JoinAttempts++
			head, _ := c.Activate()
			e2, ok := unify.Unify(env, consumer, head)
			if !ok {
				continue
			}
			m := make(map[string]term.Term, len(qvars))
			d := term.Detacher{Env: e2}
			for _, v := range qvars {
				m[v.String()] = d.Detach(v)
			}
			rep.Solutions = append(rep.Solutions, m)
		}
	}
	return rep, nil
}
