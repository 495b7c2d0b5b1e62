package table

import (
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/term"
	"blog/internal/weights"
)

// liveKeys runs goal over db on a trail run and, at every solution, reads
// the run's renamed root goal's variant key and its min(2) projection key twice: in place on the
// live store, and from the detached answer the way a table stored it
// before the live check existed. The canonical answer a table stores,
// copied out in one pass under the live key's variables, must read as the
// detached answer canonicalized. It fails the test on any difference.
func liveKeys(tb testing.TB, db *kb.DB, goal term.Term) (keys []string) {
	tb.Helper()
	tr := engine.NewTrailRun(engine.TrailConfig{
		DB:            db,
		Weights:       weights.NewUniform(weights.DefaultConfig()),
		MaxExpansions: 10_000,
	}, []term.Term{goal})
	defer tr.Release()
	env, root := tr.Live()
	minTable := &Table{min: 2}
	ev := &eval{}
	for {
		ok, err := tr.Advance()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return keys
		}
		live, vars := appendVariantKey(nil, nil, env, root)
		d := term.Detacher{Env: env}
		ans := d.Detach(root)
		detached, canon := Canonicalize(nil, ans)
		if string(live) != detached {
			tb.Fatalf("%s: live key %q, detached key %q", ans, live, detached)
		}
		if got := canonical(env, vars, root); got.String() != canon.String() {
			tb.Fatalf("%s: stored in one pass as %s, canonicalized from the detached copy as %s", ans, got, canon)
		}
		liveCost, liveOK := ev.projKey(minTable, env, root)
		liveProj := string(ev.key)
		cost, ok := ev.projKey(minTable, nil, ans)
		if liveOK != ok || ok && (liveCost != cost || liveProj != string(ev.key)) {
			tb.Fatalf("%s: live projection %q cost %d (%v), detached %q cost %d (%v)", ans, liveProj, liveCost, liveOK, ev.key, cost, ok)
		}
		keys = append(keys, detached)
	}
}

// TestLiveKeyEqualsDetachedKey: a derived answer encoded in place on the
// trail store gets exactly the key its detached copy canonicalizes to, so
// checking the table before detaching drops the same duplicates.
func TestLiveKeyEqualsDetachedKey(t *testing.T) {
	cases := []struct {
		name, src, query string
		// distinct is the number of distinct variant keys among the
		// solutions.
		solutions, distinct int
	}{
		{"atoms and negative ints", "p(a, -5). p(-12, b). p(a, -5).", "p(A, B)", 3, 2},
		{"repeated and shared unbound variables", "p(f(X, X, Y), g(Y)). p(f(X, Y, Y), g(X)). p(f(U, U, W), g(W)).", "p(A, B)", 3, 2},
		{"nested compounds through a rule", "p(X, h(X, W, W)) :- q(X). q(g(Z, h(Z, -1, V), V)). q(k). q(g(A, h(A, -1, B), B)).", "p(A, B)", 3, 2},
		{"repeated query variable", "p(f(X), Y). p(Y, f(-3)).", "p(A, A)", 2, 2},
		{"query variables left unbound", "p(_, _). p(X, X).", "p(A, f(A, B))", 1, 1},
		{"partly bound goal", "p(f(a, X), X). p(f(Y, b), c).", "p(f(A, B), B)", 1, 1},
		{"no cost integer", "p(a, b). p(X, Y).", "p(A, B)", 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, goals, err := kb.LoadString(tc.src + "\n?- " + tc.query + ".\n")
			if err != nil {
				t.Fatal(err)
			}
			keys := liveKeys(t, db, goals[0][0])
			distinct := map[string]bool{}
			for _, k := range keys {
				distinct[k] = true
			}
			if len(keys) != tc.solutions || len(distinct) != tc.distinct {
				t.Fatalf("%d solutions with %d distinct keys %v, want %d and %d", len(keys), len(distinct), keys, tc.solutions, tc.distinct)
			}
		})
	}
}

// fuzzTerm decodes one term from data over vars: atoms, small (possibly
// negative) integers, variables drawn from vars so they repeat and share,
// and compounds of arity 1 and 2 nested up to depth 4.
func fuzzTerm(data []byte, vars []*term.Var, depth int) (term.Term, []byte) {
	if len(data) == 0 {
		return term.NewAtom("z"), data
	}
	b, data := data[0], data[1:]
	switch b % 5 {
	case 0:
		return term.NewAtom(string(rune('a' + b/5%3))), data
	case 1:
		return term.Int(int64(int8(b)) / 5), data
	case 2:
		return vars[int(b/5)%len(vars)], data
	}
	if depth >= 4 {
		return term.Int(int64(b)), data
	}
	x, data := fuzzTerm(data, vars, depth+1)
	if b%5 == 3 {
		return term.NewCompound("f", x), data
	}
	y, data := fuzzTerm(data, vars, depth+1)
	return term.NewCompound("g", x, y), data
}

// FuzzVariantKey builds a clause head and a goal from the input, binds the
// goal against the clause (directly and through a rule body) on a trail
// store, and checks every solution's live key against its detached key.
func FuzzVariantKey(f *testing.F) {
	f.Add([]byte{2, 7, 3, 2, 4, 2, 7, 2, 12, 4, 2, 2})
	f.Add([]byte{1, 6, 0, 246, 4, 7, 12, 3, 17})
	f.Add([]byte{4, 3, 2, 7, 9, 2, 2, 4, 12, 17, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		mk := func(names ...string) []*term.Var {
			vs := make([]*term.Var, len(names))
			for i, n := range names {
				vs[i] = term.NewVar(n)
			}
			return vs
		}
		cv, qv := mk("X", "Y", "Z"), mk("A", "B", "C")
		h1, data := fuzzTerm(data, cv, 0)
		h2, data := fuzzTerm(data, cv, 0)
		g1, data := fuzzTerm(data, qv, 0)
		g2, _ := fuzzTerm(data, qv, 0)
		db := kb.New()
		db.Assert(term.NewCompound("q", h1, h2), nil)
		u, v := term.NewVar("U"), term.NewVar("V")
		db.Assert(term.NewCompound("p", u, term.NewCompound("w", v)), []term.Term{term.NewCompound("q", u, v)})
		db.Assert(term.NewCompound("p", h2, h1), nil)
		liveKeys(t, db, term.NewCompound("q", g1, g2))
		liveKeys(t, db, term.NewCompound("p", g1, g2))
	})
}
