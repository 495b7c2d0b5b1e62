// Package andpar implements independent AND-parallelism, the serving half
// of section 7 of the paper: "conjunctions of goals which do not share
// variables" run under the same OR-model concurrently, and their solution
// sets combine by cross product.
//
// Goals that share variables "can be executed in sequence using the same
// scheme as Prolog", which is exactly what package search does; that is
// the baseline the experiment compares against. The section's semi-join
// for shared-variable conjunctions uses the SPD's marking, so it lives
// beside the disk model in package spd.
package andpar

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/search"
	"blog/internal/term"
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
	// Solutions are the combined conjunction answers, each group's values
	// placed at its variables' positions in QueryVars (the groups share
	// none); Bound and Depth sum across the combined groups' chains, so a
	// combined solution reports the same cost accounting a sequential
	// search of the whole conjunction would.
	Solutions []engine.Solution
	// QueryVars are the conjunction's variables in first-occurrence order.
	QueryVars []*term.Var
	// GroupCount is the number of independent groups found.
	GroupCount int
	// GroupSolutions records each group's own solution count.
	GroupSolutions []int
	// Stats aggregates search work across groups (engine.Stats.Add:
	// counters sum, the frontier and depth peaks take the maximum).
	Stats engine.Stats
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
		res.QueryVars = term.VarsUnder(nil, g, res.QueryVars)
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
		res.Stats.Add(r.Stats)
		if !r.Exhausted {
			exhausted = false
		}
	}

	// Cross product. Groups are variable-disjoint, so each fills its own
	// positions of the conjunction's values; bounds and depths add.
	pos := make(map[*term.Var]int, len(res.QueryVars))
	for i, v := range res.QueryVars {
		pos[v] = i
	}
	combined := []engine.Solution{{Values: make([]term.Term, len(res.QueryVars))}}
	for gi, r := range outs {
		if len(r.Solutions) == 0 {
			res.Exhausted = exhausted // a proven failure is still complete
			return res, nil           // conjunction fails
		}
		next := make([]engine.Solution, 0, len(combined)*len(r.Solutions))
	cross:
		for _, base := range combined {
			for _, add := range r.Solutions {
				vals := slices.Clone(base.Values)
				for j, v := range r.QueryVars {
					vals[pos[v]] = add.Values[j]
				}
				next = append(next, engine.Solution{Values: vals, Bound: base.Bound + add.Bound, Depth: base.Depth + add.Depth})
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
