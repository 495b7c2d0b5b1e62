package workload

import (
	"context"
	"strings"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/weights"
)

func loadAndRun(t *testing.T, src, query string, opt search.Options) *search.Result {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v", err)
	}
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), goals, opt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestFamilyTreeParsesAndAnswers(t *testing.T) {
	src := FamilyTree(3, 2)
	res := loadAndRun(t, src, "gf(p0, G)", search.Options{Strategy: search.DFS})
	if len(res.Solutions) == 0 {
		t.Error("family tree should have grandchildren of the root")
	}
	// Ancestor of root reaches all f-linked descendants.
	res2 := loadAndRun(t, src, "anc(p0, X)", search.Options{Strategy: search.DFS, MaxDepth: 32})
	if len(res2.Solutions) < 6 {
		t.Errorf("anc solutions = %d, want several", len(res2.Solutions))
	}
}

func TestFamilyTreeDeterministic(t *testing.T) {
	if FamilyTree(3, 2) != FamilyTree(3, 2) {
		t.Error("generator must be deterministic")
	}
}

func TestDeepFailureShape(t *testing.T) {
	src := DeepFailure(4, 3)
	// Exactly one solution, found last by DFS.
	res := loadAndRun(t, src, "top(W)", search.Options{Strategy: search.DFS})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d, want 1", len(res.Solutions))
	}
	if got := res.Solutions[0].Values[0].String(); got != "win" {
		t.Errorf("W = %s", got)
	}
	// DFS must have walked the failing branches: at least width-1 failures.
	if res.Stats.Failures < 3 {
		t.Errorf("failures = %d, want >= 3", res.Stats.Failures)
	}
}

func TestDeepFailureLearnedSearchSkipsFailures(t *testing.T) {
	src := DeepFailure(6, 4)
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	goals, _ := parse.Query("top(W)")
	first, err := search.Run(context.Background(), db, tab, goals, search.Options{Strategy: search.BestFirst, Learn: true})
	if err != nil {
		t.Fatal(err)
	}
	goals2, _ := parse.Query("top(W)")
	second, err := search.Run(context.Background(), db, tab, goals2, search.Options{
		Strategy: search.BestFirst, Learn: true, MaxSolutions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Expanded*3 > first.Stats.Expanded {
		t.Errorf("learned re-query expanded %d vs first %d; want big reduction",
			second.Stats.Expanded, first.Stats.Expanded)
	}
}

func TestDAGPathQueries(t *testing.T) {
	src := DAG(4, 3, 2, 42)
	res := loadAndRun(t, src, "path(n0_0, Z)", search.Options{Strategy: search.DFS, MaxDepth: 32})
	if len(res.Solutions) == 0 {
		t.Error("DAG should have paths from layer 0")
	}
	if !res.Exhausted {
		t.Error("layered DAG search must terminate")
	}
	// Determinism.
	if DAG(4, 3, 2, 42) != DAG(4, 3, 2, 42) {
		t.Error("DAG not deterministic in seed")
	}
	if DAG(4, 3, 2, 42) == DAG(4, 3, 2, 43) {
		t.Error("different seeds should differ")
	}
}

func TestNQueens4(t *testing.T) {
	db, _, err := kb.LoadString(NQueens)
	if err != nil {
		t.Fatal(err)
	}
	goals, _ := parse.Query("queens(4, Qs)")
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), goals,
		search.Options{Strategy: search.DFS, MaxDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("4-queens has 2 solutions, got %d", len(res.Solutions))
	}
	got := map[string]bool{}
	for _, s := range res.Solutions {
		got[s.Values[0].String()] = true
	}
	if !got["[2,4,1,3]"] || !got["[3,1,4,2]"] {
		t.Errorf("solutions = %v", got)
	}
}

func TestMapColoringCounts(t *testing.T) {
	src := MapColoring(4, 3)
	res := loadAndRun(t, src, "coloring(A,B,C,D)", search.Options{Strategy: search.DFS, MaxDepth: 64})
	// A band graph r0-r1-r2-r3 with both +1 and +2 adjacency over 3
	// colors: r0,r1,r2 all distinct (3! orders), r3 differs from r1,r2 =>
	// 1 choice. 6 solutions.
	if len(res.Solutions) != 6 {
		t.Errorf("colorings = %d, want 6", len(res.Solutions))
	}
}

func TestSessionQueriesShape(t *testing.T) {
	qs := SessionQueries(10, 20, 7)
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if !strings.HasPrefix(q, "gf(p") || !strings.HasSuffix(q, ", G)") {
			t.Errorf("malformed query %q", q)
		}
		if _, err := parse.Query(q); err != nil {
			t.Errorf("query %q does not parse: %v", q, err)
		}
	}
	// Deterministic.
	qs2 := SessionQueries(10, 20, 7)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Error("session queries not deterministic")
		}
	}
}

func TestUnbalancedShape(t *testing.T) {
	src := Unbalanced(5, 10)
	res := loadAndRun(t, src, "job(X)", search.Options{Strategy: search.DFS, MaxDepth: 64})
	// 5 shallow solutions + 1 deep one.
	if len(res.Solutions) != 6 {
		t.Errorf("solutions = %d, want 6", len(res.Solutions))
	}
	deep := false
	for _, s := range res.Solutions {
		if s.Values[0].String() == "deep" {
			deep = true
			if s.Depth < 10 {
				t.Errorf("deep solution depth = %d, want >= 10", s.Depth)
			}
		}
	}
	if !deep {
		t.Error("deep solution missing")
	}
}

func TestJoinSelectivity(t *testing.T) {
	src := Join(10, 20, 0.5, 3)
	res := loadAndRun(t, src, "r(X,K), s(K,V)", search.Options{Strategy: search.DFS, MaxDepth: 64})
	if len(res.Solutions) == 0 {
		t.Error("join should produce matches at 50% selectivity")
	}
	// Zero selectivity: no matches.
	src0 := Join(10, 20, 0, 3)
	res0 := loadAndRun(t, src0, "r(X,K), s(K,V)", search.Options{Strategy: search.DFS, MaxDepth: 64})
	if len(res0.Solutions) != 0 {
		t.Errorf("0%% selectivity gave %d matches", len(res0.Solutions))
	}
}

func TestAllGeneratorsParse(t *testing.T) {
	srcs := map[string]string{
		"FamilyTree":  FamilyTree(4, 3),
		"DeepFailure": DeepFailure(8, 6),
		"DAG":         DAG(5, 4, 3, 1),
		"NQueens":     NQueens,
		"MapColoring": MapColoring(6, 3),
		"Unbalanced":  Unbalanced(10, 20),
		"Join":        Join(50, 50, 0.3, 2),
	}
	for name, src := range srcs {
		if _, _, err := kb.LoadString(src); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}
