// Package workload generates the synthetic logic programs and query
// streams used by the experiment suite. The paper reports no benchmark
// programs of its own (its evaluation is illustrative), so these workloads
// are designed to exercise each claim: deep-failure programs for the
// best-first advantage, query sessions for the adaptivity claim, wide
// OR-trees for parallel speedup, and shared-variable conjunctions for the
// AND-parallel extension. All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// FamilyTree generates a father/mother fact base shaped like the figure-1
// example scaled up: a complete tree of persons with the given depth and
// branching factor, plus the two gf rules and ancestor rules.
//
// Persons are named p0, p1, ... in breadth-first order; p0 is the root
// patriarch. Even children get a father link, odd children a mother link,
// so both gf rules find work.
func FamilyTree(depth, branch int) string {
	var b strings.Builder
	b.WriteString("gf(X,Z) :- f(X,Y), f(Y,Z).\n")
	b.WriteString("gf(X,Z) :- f(X,Y), m(Y,Z).\n")
	b.WriteString("anc(X,Y) :- f(X,Y).\n")
	b.WriteString("anc(X,Z) :- f(X,Y), anc(Y,Z).\n")
	id := 0
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		var next []int
		for _, p := range frontier {
			for c := 0; c < branch; c++ {
				id++
				if c%2 == 0 {
					fmt.Fprintf(&b, "f(p%d,p%d).\n", p, id)
				} else {
					fmt.Fprintf(&b, "m(p%d,p%d).\n", p, id)
					// Mothers need fathers too so f-chains continue.
					fmt.Fprintf(&b, "f(p%d,p%d).\n", p, id)
				}
				next = append(next, id)
			}
		}
		frontier = next
	}
	return b.String()
}

// DeepFailure builds the adversarial program for experiment E1: a top
// predicate with `width` OR-branches; branch i is a chain of `depth` steps
// that fails at the end for every branch except the last (source-ordered),
// which succeeds. Depth-first Prolog walks every failing chain to its
// floor before reaching the winner; a learned best-first search goes
// straight to it.
func DeepFailure(width, depth int) string {
	var b strings.Builder
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "top(X) :- br%d_0(X).\n", i)
	}
	for i := 0; i < width; i++ {
		for d := 0; d < depth; d++ {
			if d+1 < depth {
				fmt.Fprintf(&b, "br%d_%d(X) :- br%d_%d(X).\n", i, d, i, d+1)
			} else if i == width-1 {
				fmt.Fprintf(&b, "br%d_%d(win).\n", i, d)
			} else {
				// Final step calls a predicate with no clauses at all, so
				// the chain dies at full depth regardless of bindings.
				fmt.Fprintf(&b, "br%d_%d(X) :- absent%d(X).\n", i, d, i)
			}
		}
	}
	return b.String()
}

// DAG generates a layered random DAG with edge/2 facts and bounded path
// rules. Layers have `width` nodes; edges go only forward one layer, so
// path/2 terminates without cycle checks. Node names are nL_I.
func DAG(layers, width, outDeg int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("path(X,Y) :- edge(X,Y).\n")
	b.WriteString("path(X,Z) :- edge(X,Y), path(Y,Z).\n")
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			seen := map[int]bool{}
			for k := 0; k < outDeg; k++ {
				j := rng.Intn(width)
				if seen[j] {
					continue
				}
				seen[j] = true
				fmt.Fprintf(&b, "edge(n%d_%d,n%d_%d).\n", l, i, l+1, j)
			}
		}
	}
	return b.String()
}

// Cyclic generates a strongly cyclic directed graph — a ring over all
// nodes plus `chords` random shortcut edges — together with the
// left-recursive transitive-closure program, declared tabled:
//
//	:- table path/2.
//	path(X,Z) :- path(X,Y), edge(Y,Z).
//	path(X,Y) :- edge(X,Y).
//
// The left recursion over a cyclic edge relation is the canonical
// workload the plain OR-tree search cannot finish (every cycle re-derives
// forever until the depth cutoff) and tabled resolution computes as a
// linear fixpoint with the complete answer set. Node names are v0..vN-1.
func Cyclic(nodes, chords int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(":- table path/2.\n")
	b.WriteString("path(X,Z) :- path(X,Y), edge(Y,Z).\n")
	b.WriteString("path(X,Y) :- edge(X,Y).\n")
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, "edge(v%d,v%d).\n", i, (i+1)%nodes)
	}
	seen := map[[2]int]bool{}
	for k := 0; k < chords; k++ {
		i, j := rng.Intn(nodes), rng.Intn(nodes)
		if i == j || j == (i+1)%nodes || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		fmt.Fprintf(&b, "edge(v%d,v%d).\n", i, j)
	}
	return b.String()
}

// WEdge is one arc of a generated weighted directed graph. Costs are
// non-negative (the answer-subsumption workloads are negative-free).
type WEdge struct {
	From, To string
	Cost     int64
}

// ShortestProgram renders a weighted edge list as the left-recursive
// weighted-reachability program over edge/3 facts:
//
//	:- table shortest/3 min(3).
//	shortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.
//	shortest(X,Y,C) :- edge(X,Y,C).
//
// With min true the cost argument is declared a subsumption slot, so each
// table keeps only the least-cost answer per node pair and the program
// terminates even over cyclic graphs. With min false the predicate is
// plain-tabled: over an acyclic graph it enumerates one answer per
// distinct path cost (the O(paths) table the subsumption mode collapses
// to O(node pairs)); over a cyclic graph it diverges.
func ShortestProgram(edges []WEdge, min bool) string {
	var b strings.Builder
	if min {
		b.WriteString(":- table shortest/3 min(3).\n")
	} else {
		b.WriteString(":- table shortest/3.\n")
	}
	b.WriteString("shortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.\n")
	b.WriteString("shortest(X,Y,C) :- edge(X,Y,C).\n")
	for _, e := range edges {
		fmt.Fprintf(&b, "edge(%s,%s,%d).\n", e.From, e.To, e.Cost)
	}
	return b.String()
}

// WeightedFamilyTreeEdges reuses the FamilyTree shape (a complete tree of
// persons, breadth-first names p0, p1, ...) as a weighted parent graph:
// father links cost 1, mother links cost 2, so two derivations of the
// same descendant pair can carry different costs and subsumption has
// dominated tuples to drop.
func WeightedFamilyTreeEdges(depth, branch int) []WEdge {
	var out []WEdge
	id := 0
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		var next []int
		for _, p := range frontier {
			for c := 0; c < branch; c++ {
				id++
				from, to := fmt.Sprintf("p%d", p), fmt.Sprintf("p%d", id)
				if c%2 == 0 {
					out = append(out, WEdge{from, to, 1})
				} else {
					// Like FamilyTree's mother-and-father pairs: two
					// parallel arcs with different costs.
					out = append(out, WEdge{from, to, 2}, WEdge{from, to, 1})
				}
				next = append(next, id)
			}
		}
		frontier = next
	}
	return out
}

// WeightedDAGEdges generates the layered random DAG of DAG with a
// deterministic random cost in 1..9 per edge. Node names are nL_I.
func WeightedDAGEdges(layers, width, outDeg int, seed int64) []WEdge {
	rng := rand.New(rand.NewSource(seed))
	var out []WEdge
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			seen := map[int]bool{}
			for k := 0; k < outDeg; k++ {
				j := rng.Intn(width)
				if seen[j] {
					continue
				}
				seen[j] = true
				out = append(out, WEdge{
					From: fmt.Sprintf("n%d_%d", l, i),
					To:   fmt.Sprintf("n%d_%d", l+1, j),
					Cost: int64(1 + rng.Intn(9)),
				})
			}
		}
	}
	return out
}

// WeightedCyclicEdges generates the strongly cyclic graph of Cyclic — a
// ring over all nodes plus random chord shortcuts — with costs in 1..9.
// Left-recursive weighted reachability over it is the workload class the
// untabled engine diverges on and plain tabling floods with unboundedly
// many dominated cost tuples; only the min(3) subsumption mode terminates
// with the true minima. Node names are v0..vN-1.
func WeightedCyclicEdges(nodes, chords int, seed int64) []WEdge {
	rng := rand.New(rand.NewSource(seed))
	var out []WEdge
	for i := 0; i < nodes; i++ {
		out = append(out, WEdge{
			From: fmt.Sprintf("v%d", i),
			To:   fmt.Sprintf("v%d", (i+1)%nodes),
			Cost: int64(1 + rng.Intn(9)),
		})
	}
	seen := map[[2]int]bool{}
	for k := 0; k < chords; k++ {
		i, j := rng.Intn(nodes), rng.Intn(nodes)
		if i == j || j == (i+1)%nodes || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		out = append(out, WEdge{
			From: fmt.Sprintf("v%d", i),
			To:   fmt.Sprintf("v%d", j),
			Cost: int64(1 + rng.Intn(9)),
		})
	}
	return out
}

// WeightedRandomEdges generates a uniformly random (generally cyclic)
// directed graph: n nodes named r0..rN-1, m random edges with costs in
// 1..maxCost, self-loops included (a self-loop is a cycle subsumption
// must cope with). Parallel edges may repeat with different costs.
func WeightedRandomEdges(nodes, m int, maxCost int64, seed int64) []WEdge {
	rng := rand.New(rand.NewSource(seed))
	out := make([]WEdge, 0, m)
	for k := 0; k < m; k++ {
		out = append(out, WEdge{
			From: fmt.Sprintf("r%d", rng.Intn(nodes)),
			To:   fmt.Sprintf("r%d", rng.Intn(nodes)),
			Cost: 1 + rng.Int63n(maxCost),
		})
	}
	return out
}

// WeightedCyclic is ShortestProgram(WeightedCyclicEdges(...), true): the
// full min-tabled weighted-reachability program over a cyclic graph, for
// benchmarks and smoke tests that only need the source text.
func WeightedCyclic(nodes, chords int, seed int64) string {
	return ShortestProgram(WeightedCyclicEdges(nodes, chords, seed), true)
}

// NQueens is the classic pure-logic N-queens program: queens(N, Qs) holds
// when Qs is a safe permutation of 1..N. It exercises arithmetic builtins
// and produces a deep OR-tree with heavy failure — the non-deterministic
// workload the paper's OR-parallelism targets.
const NQueens = `
queens(N, Qs) :- range(1, N, Ns), perm(Ns, Qs), safe(Qs).

range(L, H, [L|T]) :- L < H, M is L + 1, range(M, H, T).
range(H, H, [H]).

perm([], []).
perm(L, [H|T]) :- select(H, L, R), perm(R, T).

select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).

safe([]).
safe([Q|Qs]) :- noattack(Q, Qs, 1), safe(Qs).

noattack(_, [], _).
noattack(Q, [Q2|Qs], D) :-
    Q =\= Q2,
    Q2 - Q =\= D,
    Q - Q2 =\= D,
    D2 is D + 1,
    noattack(Q, Qs, D2).
`

// MapColoring generates a planar-ish adjacency map of `regions` regions in
// a grid-like band and a coloring program over `colors` colors using the
// \= constraint. Conjunctions share variables heavily, making it the
// AND-parallel semi-join testbed.
func MapColoring(regions, colors int) string {
	var b strings.Builder
	for c := 0; c < colors; c++ {
		fmt.Fprintf(&b, "color(c%d).\n", c)
	}
	// Region ri is adjacent to r(i+1) and r(i+2): a band graph that needs
	// 3 colors.
	var head, body []string
	for i := 0; i < regions; i++ {
		head = append(head, fmt.Sprintf("R%d", i))
		body = append(body, fmt.Sprintf("color(R%d)", i))
	}
	for i := 0; i+1 < regions; i++ {
		body = append(body, fmt.Sprintf("R%d \\= R%d", i, i+1))
	}
	for i := 0; i+2 < regions; i++ {
		body = append(body, fmt.Sprintf("R%d \\= R%d", i, i+2))
	}
	fmt.Fprintf(&b, "coloring(%s) :- %s.\n", strings.Join(head, ","), strings.Join(body, ", "))
	return b.String()
}

// SessionQueries returns a session of `n` similar queries against a
// FamilyTree(depth, branch) database: gf queries whose first argument
// walks a small neighborhood of persons, modelling the paper's "second and
// third query that is similar to the first one with some minor changes".
func SessionQueries(n int, persons int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	base := rng.Intn(persons / 2)
	for i := range out {
		p := base + rng.Intn(4) // stay in a small neighborhood
		if p >= persons {
			p = persons - 1
		}
		out[i] = fmt.Sprintf("gf(p%d, G)", p)
	}
	return out
}

// Unbalanced builds a program whose OR-tree has one very deep successful
// subtree and many shallow ones, so naive static work splitting starves.
// The root package's BenchmarkE5DSweep runs the simulated machine on it
// at the extreme D settings, the par tests publish and migrate chains
// over it, and search's best-first bound-order test runs it under a
// weight table; exhibit E5 itself runs FamilyTree(5,3).
func Unbalanced(shallow, deepDepth int) string {
	var b strings.Builder
	for i := 0; i < shallow; i++ {
		fmt.Fprintf(&b, "job(X) :- s%d(X).\n", i)
		fmt.Fprintf(&b, "s%d(t%d).\n", i, i)
	}
	fmt.Fprintf(&b, "job(X) :- d0(X).\n")
	for d := 0; d+1 < deepDepth; d++ {
		fmt.Fprintf(&b, "d%d(X) :- d%d(X).\n", d, d+1)
	}
	fmt.Fprintf(&b, "d%d(deep).\n", deepDepth-1)
	return b.String()
}

// RandomProgram generates a random stratified logic program for
// differential testing: `layers` strata of predicates where layer-k rules
// call only layer-(k-1) predicates, so every query terminates. Facts
// populate layer 0. All search strategies must agree on the solution
// multiset of any query against it.
func RandomProgram(layers, predsPerLayer, clausesPerPred, consts int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	// Layer 0: facts.
	for p := 0; p < predsPerLayer; p++ {
		for c := 0; c < clausesPerPred; c++ {
			fmt.Fprintf(&b, "l0p%d(c%d,c%d).\n", p, rng.Intn(consts), rng.Intn(consts))
		}
	}
	for l := 1; l < layers; l++ {
		for p := 0; p < predsPerLayer; p++ {
			for c := 0; c < clausesPerPred; c++ {
				// Range-restricted: the first goal always carries both
				// head variables, so every derived fact is ground and
				// the bottom-up reference semantics applies.
				body := []string{fmt.Sprintf("l%dp%d(X,Y)", l-1, rng.Intn(predsPerLayer))}
				for g := rng.Intn(2); g > 0; g-- {
					callee := rng.Intn(predsPerLayer)
					if rng.Intn(2) == 0 {
						body = append(body, fmt.Sprintf("l%dp%d(Y,Z)", l-1, callee))
					} else {
						body = append(body, fmt.Sprintf("l%dp%d(X,c%d)", l-1, callee, rng.Intn(consts)))
					}
				}
				fmt.Fprintf(&b, "l%dp%d(X,Y) :- %s.\n", l, p, strings.Join(body, ", "))
			}
		}
	}
	return b.String()
}

// ContextSensitive builds the workload for the conditional-weights
// extension (section 5's "conditional probabilities" remark): n modes and
// n legs where mode m_i is only compatible with leg p_i. The leg arcs are
// *shared pointers* — the same database arc succeeds under one mode and
// fails under every other — so the marginal section-5 scheme cannot
// assign blame (an infinity set by one context is reset by another),
// while a context-conditioned table separates (mode arc, leg arc) pairs.
func ContextSensitive(n int) string {
	var b strings.Builder
	b.WriteString("plan(M,P) :- mode(M), leg(P), ok(M,P).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "mode(m%d).\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "leg(p%d).\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "ok(m%d,p%d).\n", i, i)
	}
	return b.String()
}

// Join builds two relations r/2 and s/2 of the given sizes with a
// controlled join selectivity: matchFrac of r tuples have partners in s.
// The conjunction query `r(X,Y), s(Y,Z)` drives the semi-join experiment.
func Join(rSize, sSize int, matchFrac float64, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	matches := int(float64(rSize) * matchFrac)
	for i := 0; i < rSize; i++ {
		key := fmt.Sprintf("k%d", i)
		if i >= matches {
			key = fmt.Sprintf("miss%d", i)
		}
		fmt.Fprintf(&b, "r(a%d,%s).\n", i, key)
	}
	for j := 0; j < sSize; j++ {
		fmt.Fprintf(&b, "s(k%d,v%d).\n", rng.Intn(rSize), j)
	}
	return b.String()
}
