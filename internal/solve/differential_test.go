package solve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// fuzzCase maps a generator selector and seed to a program plus its
// candidate queries. The cases cover every resolution feature the VM
// compiles (constants, repeated variables, nested and ground compounds,
// first-argument dispatch) and every fallback it must interleave with
// (builtins, negation as failure, tabled calls).
func fuzzCase(gen uint8, seed int64) (src string, queries []string, tabled bool) {
	switch gen % fuzzGens {
	case 0:
		return workload.FamilyTree(3, 2), []string{"gf(p0, G)", "anc(p0, X)", "gf(X, Y)", "anc(X, p5)"}, false
	case 1:
		w, d := 2+int(seed%5+5)%5, 2+int(seed%4+4)%4
		return workload.DeepFailure(w, d), []string{"top(W)", "top(win)"}, false
	case 2:
		return workload.DAG(3, 3, 2, seed), []string{"path(n0_0, Z)", "path(X, Z)", "path(X, n2_1)"}, false
	case 3:
		return workload.RandomProgram(3, 3, 3, 4, seed),
			[]string{"l2p0(X, Y)", "l2p1(c0, Y)", "l1p2(X, c1)", "l2p2(X, X)"}, false
	case 4:
		// Left-recursive transitive closure over a cyclic graph: only
		// terminates tabled, and the tabled generators run compiled.
		return workload.Cyclic(8, 4, seed), []string{"path(v0, Z)", "path(X, v3)", "path(v2, v5)"}, true
	case 5:
		// Builtins and negation interleaved with compiled user clauses.
		return `
			num(1). num(2). num(3). num(4).
			big(X) :- num(X), X > 2.
			double(X, Y) :- num(X), Y is X * 2.
			small(X) :- num(X), \+(big(X)).
			samepair(X, Y) :- num(X), num(Y), X =:= Y.
		`, []string{"big(X)", "double(X, Y)", "small(X)", "samepair(A, B)"}, false
	case 6:
		return structured(seed), []string{
			"q(A, B)", "q(g(A), B)", "r(A)", "box(f(A, B), C)", "pair(P)", "pair(mk(A, A))",
		}, false
	case 7:
		// Arithmetic builtins under deep backtracking: on the trail store
		// every `is`, `<` and `=\=` binds or tests in place.
		return workload.NQueens, []string{"queens(4, Qs)", "queens(3, Qs)", "perm([1, 2, 3], P)", "range(1, 4, L)"}, false
	default:
		return termInspection, termInspectionQueries, false
	}
}

// fuzzGens is the number of program generators fuzzCase selects between.
const fuzzGens = 9

// termInspection drives the term-inspection builtins in both directions
// from inside compiled clauses: functor/3 (whose decomposition mode
// unifies twice), arg/3 with a bound and a free index (the latter an
// alternative choice point re-entered on backtracking), =../2, length/2 and
// copy_term/2. No query raises a builtin error — the harnesses treat an
// error as a failed run.
const termInspection = `
	item(f(a, b)). item(g(c)). item(h(1, 2, 3)). item(k). item(m(d, e)).
	parts(T, N, A) :- item(T), functor(T, N, A).
	build(N, A, T) :- item(S), functor(S, N, A), functor(T, N, A).
	binary(T) :- item(T), functor(T, _, 2).
	nth(I, X) :- item(T), arg(I, T, X).
	second(X) :- item(T), arg(2, T, X).
	where(I) :- item(T), arg(I, T, X), X == 2.
	spread(L) :- item(T), T =.. L.
	glue(T) :- item(S), S =.. [_|As], T =.. [w|As].
	len(N) :- item(T), T =.. L, length(L, N).
	mk(L) :- item(T), functor(T, _, N), length(L, N).
	twin(C) :- item(T), functor(T, _, N), length(L, N), copy_term(p(L, L), C).
	fresh(A, B) :- copy_term(q(X, X, _), q(A, B, _)), A = 1.
	differ(S, T) :- item(S), item(T), S \= T, functor(S, _, N), functor(T, _, N).
`

var termInspectionQueries = []string{
	"parts(T, N, A)", "build(N, A, T)", "binary(T)", "nth(I, X)", "second(X)", "where(I)",
	"spread(L)", "glue(T)", "len(N)", "mk(L)", "twin(C)", "fresh(A, B)", "differ(S, T)",
}

// addFuzzSeeds seeds a differential fuzzer: three (seed, query) picks per
// generator, plus every query of the two static builtin-heavy programs.
func addFuzzSeeds(f *testing.F) {
	for g := uint8(0); g < fuzzGens; g++ {
		f.Add(g, int64(1), uint8(0))
		f.Add(g, int64(42), uint8(1))
		f.Add(g, int64(-7), uint8(2))
	}
	f.Add(uint8(7), int64(1), uint8(3))
	for q := 3; q < len(termInspectionQueries); q++ {
		f.Add(uint8(8), int64(1), uint8(q))
	}
}

// structured generates random facts with nested compound arguments plus
// fixed rules over them, exercising opStruct read/write mode, register
// capture through structure, and the ground-compound constant pool.
func structured(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	atoms := []string{"a", "b", "c", "d"}
	var gterm func(depth int) string
	gterm = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(4) == 0 {
				return fmt.Sprintf("%d", rng.Intn(5))
			}
			return atoms[rng.Intn(len(atoms))]
		}
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("f(%s, %s)", gterm(depth-1), gterm(depth-1))
		}
		return fmt.Sprintf("g(%s)", gterm(depth-1))
	}
	var b strings.Builder
	for i := 0; i < 6+rng.Intn(6); i++ {
		fmt.Fprintf(&b, "box(%s, %s).\n", gterm(2), gterm(2))
	}
	// A nonground fact with a repeated variable (write mode must mint one
	// shared fresh variable) and structural rules over box/2.
	b.WriteString("pair(mk(X, X)).\n")
	b.WriteString("q(X, Y) :- box(X, Y).\n")
	b.WriteString("q(g(X), f(Y, Y)) :- box(X, Y).\n")
	b.WriteString("r(X) :- q(X, X).\n")
	b.WriteString("r(f(X, Y)) :- box(X, Y).\n")
	return b.String()
}

// canonSolution renders one solution with unbound variables normalized to
// appearance order, so compiled and tree-walk runs compare at term level
// regardless of fresh-variable naming.
func canonSolution(s engine.Solution) string {
	names := map[*term.Var]int{}
	var b strings.Builder
	for i, v := range s.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(canonTerm(v, names))
	}
	fmt.Fprintf(&b, " |%.9g", s.Bound)
	return b.String()
}

func canonTerm(t term.Term, names map[*term.Var]int) string {
	switch x := t.(type) {
	case *term.Var:
		id, ok := names[x]
		if !ok {
			id = len(names)
			names[x] = id
		}
		return fmt.Sprintf("_%d", id)
	case *term.Compound:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = canonTerm(a, names)
		}
		return x.FunctorName() + "(" + strings.Join(parts, ",") + ")"
	case nil:
		return "<nil>"
	default:
		return t.String()
	}
}

// runEngine executes one query on a fresh database, weight store, and
// (when tabled) table space, on either the compiled or the oracle path.
func runEngine(t *testing.T, src, query string, strat Strategy, noVM, tabled bool) *Response {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	req := &Request{
		DB:            db,
		Store:         weights.NewUniform(weights.DefaultConfig()),
		Goals:         goals,
		Strategy:      strat,
		MaxExpansions: 20000,
		MaxDepth:      48,
	}
	if tabled {
		req.Tables = table.NewSpace(db, table.Config{})
	}
	if strat == Parallel {
		req.Workers = 4
	}
	run := Do
	if noVM {
		run = doOracle
	}
	resp, err := run(context.Background(), req)
	if err != nil {
		t.Fatalf("solve (%v, noVM=%v): %v", strat, noVM, err)
	}
	return resp
}

// doOracle answers req on the differential oracle: the request's options
// with search.Options.NoVM set, so the tree-walker resolves every goal on
// the persistent-Env frontier, AND-parallel groups included. The oracle is
// sequential; Parallel's is DFS.
func doOracle(ctx context.Context, req *Request) (*Response, error) {
	_, tb := tabler(req)
	opt := searchOptions(req, tb)
	opt.NoVM = true
	if req.AndParallel {
		return andParallel(ctx, req, opt)
	}
	return sequential(ctx, req, opt, nil)
}

func canonAll(resp *Response) []string {
	out := make([]string, len(resp.Solutions))
	for i, s := range resp.Solutions {
		out[i] = canonSolution(s)
	}
	return out
}

// FuzzVMResolve is the differential oracle for the bytecode engine:
// random programs and queries must produce identical solution sets,
// bounds, and completion status compiled and tree-walked, under the three
// sequential strategies, and step for step on every work counter, because
// compiled candidate order matches the tree-walker's clause-ID order
// exactly. The compiled Parallel run must reproduce the sequential DFS
// oracle's solution multiset: the tree-walker runs sequentially only.
func FuzzVMResolve(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, gen uint8, seed int64, qsel uint8) {
		src, queries, tabled := fuzzCase(gen, seed)
		query := queries[int(qsel)%len(queries)]
		var dfsOracle *Response
		for _, strat := range []Strategy{DFS, BFS, BestFirst} {
			oracle := runEngine(t, src, query, strat, true, tabled)
			compiled := runEngine(t, src, query, strat, false, tabled)
			if strat == DFS {
				dfsOracle = oracle
			}
			// The oracle's \+ bodies run compiled, on the trail machine.
			if oracle.Stats.VMDispatched != 0 && !strings.Contains(src, `\+`) {
				t.Fatalf("%v: oracle run dispatched %d goals to the VM", strat, oracle.Stats.VMDispatched)
			}
			if oracle.Exhausted != compiled.Exhausted {
				t.Fatalf("%v: Exhausted %v (oracle) vs %v (compiled)", strat, oracle.Exhausted, compiled.Exhausted)
			}
			a, b := canonAll(oracle), canonAll(compiled)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%v: solutions diverge\noracle:   %v\ncompiled: %v", strat, a, b)
			}
			os, cs := oracle.Stats, compiled.Stats
			if os.Expanded != cs.Expanded || os.Generated != cs.Generated ||
				os.Failures != cs.Failures || os.DepthCutoffs != cs.DepthCutoffs ||
				os.Pruned != cs.Pruned || os.MaxDepth != cs.MaxDepth {
				t.Fatalf("%v: stats diverge\noracle:   %+v\ncompiled: %+v", strat, os, cs)
			}
			if !tabled && cs.Expanded > 0 && cs.Generated > 0 && cs.VMDispatched == 0 {
				t.Fatalf("%v: compiled run never dispatched to the VM (stats %+v)", strat, cs)
			}
		}
		// Worker interleaving is nondeterministic; compare the solution
		// multiset, and only when both runs proved it complete (a budget cut
		// truncates unpredictably).
		parallel := runEngine(t, src, query, Parallel, false, tabled)
		if !dfsOracle.Exhausted || !parallel.Exhausted {
			return
		}
		a, b := canonAll(dfsOracle), canonAll(parallel)
		// The solver sorts a Parallel response by the solutions' printed
		// form, which for an answer with unbound variables depends on their
		// serial numbers; sort both on the canonical form.
		sort.Strings(a)
		sort.Strings(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("parallel: solutions diverge from the DFS oracle\noracle:   %v\nparallel: %v", a, b)
		}
	})
}
