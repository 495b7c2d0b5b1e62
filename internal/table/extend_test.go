package table_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/solve"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// servedAnswers runs one tabled query and returns its answers in the
// order the engine served them.
func servedAnswers(t testing.TB, db *kb.DB, sp *table.Space, query string, strat solve.Strategy) []string {
	t.Helper()
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := solve.Do(context.Background(), &solve.Request{
		DB:       db,
		Store:    weights.NewUniform(weights.DefaultConfig()),
		Goals:    goals,
		Strategy: strat,
		Workers:  2,
		Tables:   sp,
	})
	if err != nil {
		t.Fatalf("%v %q: %v", strat, query, err)
	}
	if !resp.Exhausted {
		t.Fatalf("%v %q: not exhausted", strat, query)
	}
	out := make([]string, len(resp.Solutions))
	for i, s := range resp.Solutions {
		out[i] = s.Format(resp.QueryVars)
	}
	return out
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	sort.Strings(s)
	return s
}

// minCostAnswers renders ref.MinCosts over db's edge/3 facts as the
// answers of shortest(src, Z, C), or of shortest(X, Y, C) when src is
// empty.
func minCostAnswers(t *testing.T, db *kb.DB, src string) []string {
	t.Helper()
	var edges []ref.WeightedEdge
	for _, c := range db.ClausesFor("edge/3") {
		a := c.Head.(*term.Compound).Args
		edges = append(edges, ref.WeightedEdge{From: a[0].String(), To: a[1].String(), Cost: int64(a[2].(term.Int))})
	}
	dist, err := ref.MinCosts(edges)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for pair, d := range dist {
		switch {
		case src == "":
			out = append(out, fmt.Sprintf("X = %s, Y = %s, C = %d", pair[0], pair[1], d))
		case pair[0] == src:
			out = append(out, fmt.Sprintf("Z = %s, C = %d", pair[1], d))
		}
	}
	sort.Strings(out)
	return out
}

// TestSeededSpaceMatchesFreshAndRef is the differential net for tables
// that re-derive from their old answers. After every assert of a
// sequence, a space whose tables were all warm — so each stale monotone
// table is seeded with its old answers — must serve exactly the answers
// of a fresh space and of the independent oracle (ref's fixpoint, or
// ref.MinCosts for min(3)), under DFS, best-first and Parallel. The three
// programs cover asserts that add no answer (the ring's closure is
// already complete), asserts that add answers and rounds (new arcs in a
// sparse layered DAG, one of them to a new layer), and asserts that lower
// min(3) costs that must propagate. A min(N) table is never seeded — a
// lowered cost replaces the old one — so that program must extend no
// table. Under DFS a seeded table serves its old answers first, in their
// old order, then the new ones.
func TestSeededSpaceMatchesFreshAndRef(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		tabled  string // extra predicate to table, for generated sources
		asserts []string
		queries []string
		// min marks the shortest/3 program, whose oracle is MinCosts.
		min bool
	}{
		{
			name:    "cyclic",
			src:     workload.Cyclic(12, 6, 5),
			asserts: []string{"edge(v0,v6)", "edge(v3,v9)", "edge(v11,v2)"},
			queries: []string{"path(v0,Z)", "path(X,v5)", "path(X,Y)"},
		},
		{
			name:    "layered-dag",
			src:     workload.DAG(5, 3, 1, 7),
			tabled:  "path/2",
			asserts: []string{"edge(n0_0,n1_1)", "edge(n2_2,n3_0)", "edge(n4_0,n5_0)", "edge(n0_1,n1_0)"},
			queries: []string{"path(n0_0,Z)", "path(X,n4_0)", "path(X,Y)"},
		},
		{
			name:    "shortest-min",
			src:     workload.ShortestProgram(workload.WeightedCyclicEdges(10, 5, 3), true),
			min:     true,
			asserts: []string{"edge(v0,v5,1)", "edge(v5,v6,1)", "edge(v2,v9,2)"},
			queries: []string{"shortest(v0,Z,C)", "shortest(X,Y,C)"},
		},
	}
	for _, tc := range cases {
		for _, strat := range []solve.Strategy{solve.DFS, solve.BestFirst, solve.Parallel} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, strat), func(t *testing.T) {
				db, _, err := kb.LoadString(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				if tc.tabled != "" {
					name, arity, _ := splitPred(tc.tabled)
					db.MarkTabled(name, arity)
				}
				oracle := func(query string) []string {
					switch {
					case !tc.min:
						return oracleAnswers(t, db, query)
					case query == "shortest(X,Y,C)":
						return minCostAnswers(t, db, "")
					default:
						return minCostAnswers(t, db, "v0")
					}
				}
				seeded := table.NewSpace(db, table.Config{})
				before := map[string][]string{}
				for _, query := range tc.queries {
					before[query] = servedAnswers(t, db, seeded, query, strat)
				}
				for _, fact := range tc.asserts {
					assertFact(t, db, fact)
					fresh := table.NewSpace(db, table.Config{})
					for _, query := range tc.queries {
						got := servedAnswers(t, db, seeded, query, strat)
						want := oracle(query)
						if fmt.Sprint(sorted(got)) != fmt.Sprint(want) {
							t.Fatalf("after %s, %q seeded:\nengine: %v\noracle: %v", fact, query, sorted(got), want)
						}
						if f := sorted(servedAnswers(t, db, fresh, query, strat)); fmt.Sprint(f) != fmt.Sprint(want) {
							t.Fatalf("after %s, %q fresh:\nengine: %v\noracle: %v", fact, query, f, want)
						}
						if strat == solve.DFS && !tc.min {
							old, now := before[query], got
							if len(now) < len(old) || !slices.Equal(now[:len(old)], old) {
								t.Fatalf("after %s, %q served\n%v\nwhich does not start with the old answers\n%v", fact, query, now, old)
							}
						}
						before[query] = got
					}
				}
				tot := seeded.Totals()
				switch {
				case tc.min && tot.Extended != 0:
					t.Fatalf("totals: %d min(3) tables extended from their old answers, want none", tot.Extended)
				case tc.min && tot.Improved == 0:
					t.Fatalf("totals: no min(3) cost improved, the cheaper edges did not propagate")
				case !tc.min && (tot.Extended == 0 || tot.Extended > tot.Revalidated):
					t.Fatalf("totals: %d extended of %d revalidated; want some tables extended from their old answers", tot.Extended, tot.Revalidated)
				}
			})
		}
	}
}

// TestNonMonotoneTablesRederiveFromEmpty pins the tables that must not be
// seeded with their old answers: those an assert may take answers from
// (through a \+ or a lowered min(N) cost), min(N) tables themselves, and
// those restored from a snapshot, which carry no dedup index. Each
// case warms its queries, asserts, and re-queries; the answers must equal
// the hand-computed sets, every listed table must journal its
// revalidation without "extended from", and its revalidation must take
// as many rounds as a fresh production of the new program.
func TestNonMonotoneTablesRederiveFromEmpty(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		queries []string // warmed in order, then re-queried after the assert
		assert  string
		want    map[string]string
		// fromEmpty are the call patterns that must not be extended.
		fromEmpty []string
		// restore reloads the warm tables from a snapshot into a new
		// space before the assert.
		restore bool
	}{
		{
			// far/1 consumes unreachable/1, complete and non-monotone.
			name: "consumes a non-monotone complete table",
			src: `:- table reach/2, unreachable/1, far/1.
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
unreachable(Y) :- node(Y), \+(reach(a, Y)).
far(Y) :- unreachable(Y).
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c).
`,
			queries:   []string{"unreachable(Y)", "far(Y)"},
			assert:    "edge(c, d)",
			want:      map[string]string{"unreachable(Y)": "[Y = a]", "far(Y)": "[Y = a]"},
			fromEmpty: []string{"unreachable(_T0)", "far(_T0)"},
		},
		{
			// q(a) is produced inside p's \+, in p's group.
			name: "produced inside a negation in the same group",
			src: `:- table p/1, q/1.
p(X) :- node(X), \+(q(X)).
q(X) :- mark(X).
node(a). node(b). node(c).
mark(a).
`,
			queries:   []string{"p(X)"},
			assert:    "mark(b)",
			want:      map[string]string{"p(X)": "[X = c]"},
			fromEmpty: []string{"p(_T0)", "q(a)"},
		},
		{
			// A plain table memoizes every cost it reads from a min(3)
			// table, so a cheaper edge must not leave the old cost behind.
			name: "plain table over a min(N) table",
			src: `:- table shortest/3 min(3).
:- table cost/2.
shortest(X, Z, C) :- shortest(X, Y, A), edge(Y, Z, B), C is A + B.
shortest(X, Y, C) :- edge(X, Y, C).
cost(Y, C) :- shortest(a, Y, C).
edge(a, b, 4). edge(b, c, 1).
`,
			queries:   []string{"shortest(a, Y, C)", "cost(Y, C)"},
			assert:    "edge(a, c, 2)",
			want:      map[string]string{"shortest(a, Y, C)": "[Y = b, C = 4 Y = c, C = 2]", "cost(Y, C)": "[Y = b, C = 4 Y = c, C = 2]"},
			fromEmpty: []string{"shortest(a,_T0,_T1)", "cost(_T0,_T1)"},
		},
		{
			// The same, with shortest/3 produced in cost/2's group.
			name: "plain table producing a min(N) table",
			src: `:- table shortest/3 min(3).
:- table cost/2.
shortest(X, Z, C) :- shortest(X, Y, A), edge(Y, Z, B), C is A + B.
shortest(X, Y, C) :- edge(X, Y, C).
cost(Y, C) :- shortest(a, Y, C).
edge(a, b, 4). edge(b, c, 1).
`,
			queries:   []string{"cost(Y, C)"},
			assert:    "edge(a, c, 2)",
			want:      map[string]string{"cost(Y, C)": "[Y = b, C = 4 Y = c, C = 2]"},
			fromEmpty: []string{"shortest(a,_T0,_T1)", "cost(_T0,_T1)"},
		},
		{
			// A min(N) table that reads no table is still never seeded.
			name: "min(N) table over facts",
			src: `:- table cheapest/2 min(2).
cheapest(X, C) :- edge(X, _, C).
edge(a, b, 4). edge(b, c, 1).
`,
			queries:   []string{"cheapest(X, C)"},
			assert:    "edge(a, c, 2)",
			want:      map[string]string{"cheapest(X, C)": "[X = a, C = 2 X = b, C = 1]"},
			fromEmpty: []string{"cheapest(_T0,_T1)"},
		},
		{
			// A min(N) table over a min(N) table: the new cost of c fails
			// the filter, so nothing would replace expensive(c, 5).
			name: "min(N) table filtering a min(N) table's cost",
			src: `:- table shortest/3 min(3).
:- table expensive/2 min(2).
shortest(X, Z, C) :- shortest(X, Y, A), edge(Y, Z, B), C is A + B.
shortest(X, Y, C) :- edge(X, Y, C).
expensive(Y, C) :- shortest(a, Y, C), C > 3.
edge(a, b, 4). edge(b, c, 1).
`,
			queries:   []string{"expensive(Y, C)"},
			assert:    "edge(a, c, 2)",
			want:      map[string]string{"expensive(Y, C)": "[Y = b, C = 4]"},
			fromEmpty: []string{"shortest(a,_T0,_T1)", "expensive(_T0,_T1)"},
		},
		{
			// The consumed cost A stays in the projection, so the cheaper
			// path is a new answer beside, not in place of, the old one.
			name: "min(N) table keeping a min(N) cost in its projection",
			src: `:- table shortest/3 min(3).
:- table via/3 min(3).
shortest(X, Z, C) :- shortest(X, Y, A), edge(Y, Z, B), C is A + B.
shortest(X, Y, C) :- edge(X, Y, C).
via(Y, A, C) :- shortest(a, Y, A), C is 10 - A.
edge(a, b, 4). edge(b, c, 1).
`,
			queries:   []string{"via(Y, A, C)"},
			assert:    "edge(a, c, 2)",
			want:      map[string]string{"via(Y, A, C)": "[Y = b, A = 4, C = 6 Y = c, A = 2, C = 8]"},
			fromEmpty: []string{"shortest(a,_T0,_T1)", "via(_T0,_T1,_T2)"},
		},
		{
			name: "restored from a snapshot",
			src: `:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c). edge(c, a).
`,
			queries:   []string{"path(a, Z)"},
			assert:    "edge(c, d)",
			want:      map[string]string{"path(a, Z)": "[Z = a Z = b Z = c Z = d]"},
			fromEmpty: []string{"path(a,_T0)"},
			restore:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := kb.LoadString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			sp := table.NewSpace(db, table.Config{})
			for _, query := range tc.queries {
				tabledAnswers(t, db, sp, query, solve.DFS)
			}
			if tc.restore {
				var buf bytes.Buffer
				if _, err := sp.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				sp = table.NewSpace(db, table.Config{})
				if loaded, _, err := sp.ReadSnapshot(&buf); err != nil || loaded != len(tc.fromEmpty) {
					t.Fatalf("snapshot load: %d tables, %v", loaded, err)
				}
			}
			j := obs.NewJournal(256)
			sp.SetJournal(j)
			first := roundsByCall(sp)
			assertFact(t, db, tc.assert)
			for _, query := range tc.queries {
				if got := tabledAnswers(t, db, sp, query, solve.DFS); fmt.Sprint(got) != tc.want[query] {
					t.Fatalf("post-assert %q = %v, want %s", query, got, tc.want[query])
				}
			}
			fresh := table.NewSpace(db, table.Config{})
			for _, query := range tc.queries {
				tabledAnswers(t, db, fresh, query, solve.DFS)
			}
			after, want := roundsByCall(sp), roundsByCall(fresh)
			details := map[string]string{}
			for _, ev := range j.Events(0) {
				if ev.Kind == obs.KindTableRevalidated {
					details[ev.Call] = ev.Detail
				}
			}
			for _, call := range tc.fromEmpty {
				detail, ok := details[call]
				if !ok {
					t.Fatalf("%s was not revalidated (events %v)", call, details)
				}
				if detail != "" {
					t.Errorf("%s revalidated with %q, want it re-derived from empty", call, detail)
				}
				if got := after[call] - first[call]; got != want[call] {
					t.Errorf("%s revalidation took %d rounds, a fresh production %d", call, got, want[call])
				}
			}
		})
	}
}

func roundsByCall(sp *table.Space) map[string]int {
	out := map[string]int{}
	for _, ti := range sp.Tables() {
		out[ti.Call] = ti.Rounds
	}
	return out
}

// FuzzAssertExtend builds a random graph and a random sequence of edge
// asserts, and after every assert checks a space whose tables were warm —
// so monotone tables re-derive from their old answers, and min(3) tables
// from empty — against a fresh space, on the left-recursive path/2
// program and on the min(3) shortest/3 program over the same graph, with
// a min(2) table that filters shortest/3's costs.
func FuzzAssertExtend(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 0}, []byte{2, 3, 1, 0, 3, 1})
	f.Add(uint8(6), []byte{0, 1, 1, 2, 3, 4}, []byte{2, 3, 4, 5, 5, 0})
	f.Add(uint8(3), []byte{}, []byte{0, 1, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, n uint8, graph, asserts []byte) {
		nodes := int(n%6) + 2
		if len(graph) > 24 || len(asserts) > 12 {
			return
		}
		edge := func(b []byte, i int, weighted bool) string {
			from, to := int(b[i])%nodes, int(b[i+1])%nodes
			if weighted {
				return fmt.Sprintf("edge(v%d,v%d,%d)", from, to, int(b[i]^b[i+1])%9+1)
			}
			return fmt.Sprintf("edge(v%d,v%d)", from, to)
		}
		programs := []struct {
			head     string
			weighted bool
			queries  []string
		}{
			{":- table path/2.\npath(X,Z) :- path(X,Y), edge(Y,Z).\npath(X,Y) :- edge(X,Y).\n", false, []string{"path(v0,Z)", "path(X,Y)"}},
			{":- table shortest/3 min(3).\n:- table expensive/2 min(2).\nshortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.\nshortest(X,Y,C) :- edge(X,Y,C).\nexpensive(Y,C) :- shortest(v0,Y,C), C > 3.\n", true, []string{"shortest(v0,Z,C)", "shortest(X,Y,C)", "expensive(Y,C)"}},
		}
		for _, p := range programs {
			var src strings.Builder
			src.WriteString(p.head)
			for i := 0; i+1 < len(graph); i += 2 {
				src.WriteString(edge(graph, i, p.weighted) + ".\n")
			}
			db, _, err := kb.LoadString(src.String())
			if err != nil {
				t.Fatal(err)
			}
			seeded := table.NewSpace(db, table.Config{})
			for _, query := range p.queries {
				servedAnswers(t, db, seeded, query, solve.DFS)
			}
			for i := 0; i+1 < len(asserts); i += 2 {
				fact := edge(asserts, i, p.weighted)
				assertFact(t, db, fact)
				fresh := table.NewSpace(db, table.Config{})
				for _, query := range p.queries {
					got := sorted(servedAnswers(t, db, seeded, query, solve.DFS))
					want := sorted(servedAnswers(t, db, fresh, query, solve.DFS))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("after %s, %q:\nseeded: %v\nfresh:  %v", fact, query, got, want)
					}
				}
			}
		}
	})
}
