package solve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/weights"
)

// betweenProgram mixes between/3's alternative choice points, which never leave
// their worker, with clause choice points that do.
const betweenProgram = `
	num(1). num(2). num(3).
	pick(X, Y) :- between(1, 3, X), num(Y), X + Y > 3.
	grid(X, Y, Z) :- num(X), between(X, 4, Y), num(Z), Y =\= Z.
`

// runParallelCase runs one query on a fresh database and table space; err
// is the engine's.
func runParallelCase(t *testing.T, src, query string, tabled bool, req Request) (*Response, error) {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if req.Goals, err = parse.Query(query); err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	req.DB, req.Store = db, weights.NewUniform(weights.DefaultConfig())
	req.MaxExpansions, req.MaxDepth = 20000, 48
	if tabled {
		req.Tables = table.NewSpace(db, table.Config{})
	}
	return Do(context.Background(), &req)
}

// TestParallelMatchesDFS holds the OR-parallel engine to sequential trail
// DFS exactly. On every fuzzCase generator — tabled, negation and
// term-inspection programs among them — plus a between/3 program, at 1, 2,
// 3 and 8 workers, under SharedHeap and under TwoLevel with D=0 and
// LocalCap 2 (the setting that publishes and migrates most), an exhaustive
// parallel run finds the same solution multiset with the same work
// counters, the whole engine.Stats: chains move between workers, but no
// node is lost, repeated or counted twice, and a chain carries its depth
// to the worker that resumes it.
func TestParallelMatchesDFS(t *testing.T) {
	type program struct {
		src     string
		queries []string
		tabled  bool
	}
	var programs []program
	for g := uint8(0); g < fuzzGens; g++ {
		src, queries, tabled := fuzzCase(g, 1)
		programs = append(programs, program{src, queries, tabled})
	}
	programs = append(programs, program{betweenProgram, []string{"pick(X, Y)", "grid(X, Y, Z)"}, false})
	for _, p := range programs {
		for _, query := range p.queries {
			dfs, err := runParallelCase(t, p.src, query, p.tabled, Request{Strategy: DFS})
			if err != nil || !dfs.Exhausted {
				continue // over budget: nothing exact to compare against
			}
			want := canonAll(dfs)
			sort.Strings(want)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, twoLevel := range []bool{false, true} {
					name := fmt.Sprintf("%s workers=%d twoLevel=%v", query, workers, twoLevel)
					resp, err := runParallelCase(t, p.src, query, p.tabled, Request{
						Strategy: Parallel, Workers: workers,
						TwoLevel: twoLevel, D: 0, LocalCap: 2,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !resp.Exhausted {
						t.Fatalf("%s: not exhausted", name)
					}
					got := canonAll(resp)
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: solutions\n got %v\nwant %v", name, got, want)
					}
					if ps, ds := resp.Stats.Stats, dfs.Stats.Stats; ps != ds {
						t.Fatalf("%s: stats\n got %+v\nwant %+v", name, ps, ds)
					}
				}
			}
		}
	}
}

// TestSortSolutionsKeepsOrder holds sortSolutions, which renders each
// solution once, to the order of the comparator it replaced — Format on
// both sides of every comparison, then bound — over shuffled solutions of
// every fuzzCase query, each solution present twice so keys tie.
func TestSortSolutionsKeepsOrder(t *testing.T) {
	byFormat := func(sols []engine.Solution, qvars []*term.Var) {
		sort.Slice(sols, func(i, j int) bool {
			a, b := sols[i].Format(qvars), sols[j].Format(qvars)
			if a != b {
				return a < b
			}
			return sols[i].Bound < sols[j].Bound
		})
	}
	rng := rand.New(rand.NewSource(1))
	for g := uint8(0); g < fuzzGens; g++ {
		src, queries, tabled := fuzzCase(g, 1)
		for _, query := range queries {
			resp, err := runParallelCase(t, src, query, tabled, Request{Strategy: DFS})
			if err != nil {
				continue // over budget
			}
			sols := append(slices.Clone(resp.Solutions), resp.Solutions...)
			for round := 0; round < 3; round++ {
				rng.Shuffle(len(sols), func(i, j int) { sols[i], sols[j] = sols[j], sols[i] })
				want, got := slices.Clone(sols), slices.Clone(sols)
				byFormat(want, resp.QueryVars)
				sortSolutions(got, resp.QueryVars)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("gen %d %s: order differs from the Format comparator's", g, query)
				}
			}
		}
	}
}
