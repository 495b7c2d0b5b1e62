package vm

import (
	"slices"
	"testing"

	"blog/internal/kb"
	"blog/internal/term"
)

// TestCandidatesAgreeWithSelect holds kb.Candidates, the tree-walker's
// clause selection, to the VM's dispatch: for every goal both name the
// same clauses in the same order, before and after an assert extends or
// rebuilds the dispatch.
func TestCandidatesAgreeWithSelect(t *testing.T) {
	// Clause IDs: 0 f(a,1), 1 f(X,0), 2 f(1,a), 3 f(g(Y),2), 4 f(b,2),
	// 5 f(Z,9), 6 f(a,3), 7 f(g(1,2),4), 8 f(1,b), 9 p, 10 p; an
	// asserted clause is 11.
	const src = `
		f(a, 1). f(X, 0). f(1, a). f(g(Y), 2). f(b, 2).
		f(Z, 9). f(a, 3). f(g(1, 2), 4). f(1, b).
		p. p.
	`
	cases := []struct {
		name   string
		assert string // a fact asserted after the first compile, or ""
		goal   string
		bind   string // what env binds the goal's first argument to, or ""
		want   []kb.ClauseID
	}{
		{"atom", "", "f(a, N)", "", []kb.ClauseID{0, 1, 5, 6}},
		{"integer", "", "f(1, N)", "", []kb.ClauseID{1, 2, 5, 8}},
		{"compound", "", "f(g(x), N)", "", []kb.ClauseID{1, 3, 5}},
		{"compound of another arity", "", "f(g(1, 2), N)", "", []kb.ClauseID{1, 5, 7}},
		{"a constant no head has", "", "f(zzz, N)", "", []kb.ClauseID{1, 5}},
		{"unbound", "", "f(X, N)", "", []kb.ClauseID{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"bound through env", "", "f(X, N)", "b", []kb.ClauseID{1, 4, 5}},
		{"arity 0", "", "p", "", []kb.ClauseID{9, 10}},
		{"after a keyed append", "f(a, 5)", "f(a, N)", "", []kb.ClauseID{0, 1, 5, 6, 11}},
		{"after a keyed append of a new key", "f(c, 5)", "f(c, N)", "", []kb.ClauseID{1, 5, 11}},
		{"after a variable-first append", "f(W, 6)", "f(a, N)", "", []kb.ClauseID{0, 1, 5, 6, 11}},
		{"after a variable-first append, no key", "f(W, 6)", "f(zzz, N)", "", []kb.ClauseID{1, 5, 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := load(t, src)
			g := goal(t, tc.goal)
			fn, arity, _ := term.PredOf(g)
			Pred(db, fn, arity)
			if tc.assert != "" {
				db.Assert(goal(t, tc.assert), nil)
			}
			env := emptyEnv
			if tc.bind != "" {
				env = env.Bind(g.(*term.Compound).Args[0].(*term.Var), goal(t, tc.bind))
			}
			var fromKB, fromVM []kb.ClauseID
			for _, c := range db.Candidates(env, g) {
				fromKB = append(fromKB, c.ID)
			}
			for _, cc := range Pred(db, fn, arity).Select(env, g) {
				fromVM = append(fromVM, cc.Clause().ID)
			}
			if !slices.Equal(fromKB, fromVM) {
				t.Fatalf("kb.Candidates = %v, Select = %v", fromKB, fromVM)
			}
			if !slices.Equal(fromKB, tc.want) {
				t.Fatalf("candidates = %v, want %v", fromKB, tc.want)
			}
		})
	}
}
