package engine

import (
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/term"
	"blog/internal/weights"
)

const fig1 = `
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).   f(sam,larry).
f(dan,pat).      f(larry,den).
f(pat,john).     f(larry,doug).
m(elain,john).
m(marian,elain).
m(peg,den).
m(peg,doug).
`

func setup(t testing.TB, src string) (*kb.DB, *Expander) {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return db, NewExpander(db, weights.NewUniform(weights.DefaultConfig()))
}

func goals(t testing.TB, q string) []term.Term {
	t.Helper()
	gs, err := parse.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func TestGoalStack(t *testing.T) {
	var s *GoalStack
	if s.Len() != 0 {
		t.Error("empty stack len")
	}
	if _, ok := s.Top(); ok {
		t.Error("empty stack should have no top")
	}
	var sl slab
	push := func(s *GoalStack, entries ...GoalEntry) *GoalStack {
		block := sl.goals.Take(len(entries))
		for i, e := range entries {
			block[i].entry = e
		}
		return link(block, s)
	}
	g1 := GoalEntry{Goal: term.NewAtom("a")}
	g2 := GoalEntry{Goal: term.NewAtom("b")}
	s2 := push(s, g1, g2)
	if s2.Len() != 2 {
		t.Errorf("len = %d", s2.Len())
	}
	top, _ := s2.Top()
	if top.Goal != term.NewAtom("a") {
		t.Error("push order wrong: first entry must be on top")
	}
	if s2.Pop().Len() != 1 {
		t.Error("pop should drop one")
	}
	// Persistence: s2 unchanged after further pushes.
	s3 := push(s2.Pop(), GoalEntry{Goal: term.NewAtom("c")})
	if top2, _ := s2.Top(); top2.Goal != term.NewAtom("a") {
		t.Error("s2 mutated")
	}
	if top3, _ := s3.Top(); top3.Goal != term.NewAtom("c") {
		t.Error("s3 top wrong")
	}
}

func TestArcList(t *testing.T) {
	var l *ArcList
	if l.Len() != 0 || len(l.Slice()) != 0 {
		t.Error("empty arc list")
	}
	a1 := kb.Arc{Caller: kb.Query, Pos: 0, Callee: 0}
	a2 := kb.Arc{Caller: 0, Pos: 0, Callee: 1}
	var sl slab
	l2 := sl.extend(sl.extend(l, a1), a2)
	s := l2.Slice()
	if len(s) != 2 || s[0] != a1 || s[1] != a2 {
		t.Errorf("slice = %v (must be root-first)", s)
	}
}

func TestRootNode(t *testing.T) {
	_, exp := setup(t, fig1)
	root := exp.Root(goals(t, "gf(sam,G)"))
	if root.Goals.Len() != 1 || !root.IsSolution() == false && root.IsSolution() {
		t.Error("root should have 1 goal")
	}
	e, _ := root.Goals.Top()
	if e.Caller != kb.Query || e.Pos != 0 {
		t.Errorf("root goal coordinates = %v/%v", e.Caller, e.Pos)
	}
	if root.Bound != 0 || root.Depth != 0 {
		t.Error("root bound/depth must be zero")
	}
}

func TestExpandMatchesRules(t *testing.T) {
	_, exp := setup(t, fig1)
	root := exp.Root(goals(t, "gf(sam,G)"))
	children, err := exp.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("got %d children, want 2 (two gf rules)", len(children))
	}
	c0 := children[0]
	if c0.Goals.Len() != 2 {
		t.Errorf("child goals = %d, want 2 (rule body)", c0.Goals.Len())
	}
	top, _ := c0.Goals.Top()
	if top.Caller != 0 || top.Pos != 0 {
		t.Errorf("body goal coordinates = %d/%d, want 0/0", top.Caller, top.Pos)
	}
	// First body goal must be f(sam, Y) under the child env.
	if got := c0.Env.Format(top.Goal); got != "f(sam,Y)" {
		t.Errorf("first body goal = %s", got)
	}
	if c0.Depth != 1 || c0.Chain.Len() != 1 {
		t.Error("child depth/chain wrong")
	}
	arc := c0.Chain.Slice()[0]
	want := kb.Arc{Caller: kb.Query, Pos: 0, Callee: 0}
	if arc != want {
		t.Errorf("arc = %v, want %v", arc, want)
	}
}

func TestExpandUniformBound(t *testing.T) {
	_, exp := setup(t, fig1)
	root := exp.Root(goals(t, "gf(sam,G)"))
	children, _ := exp.Expand(root)
	for _, c := range children {
		if c.Bound != 1 {
			t.Errorf("uniform child bound = %v, want 1", c.Bound)
		}
	}
}

func TestExpandFactConsumesGoal(t *testing.T) {
	_, exp := setup(t, fig1)
	root := exp.Root(goals(t, "f(sam,Y)"))
	children, err := exp.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 1 {
		t.Fatalf("got %d children", len(children))
	}
	if !children[0].IsSolution() {
		t.Error("fact match should yield a solution node")
	}
}

func TestExpandFailure(t *testing.T) {
	_, exp := setup(t, fig1)
	root := exp.Root(goals(t, "f(nobody,Y)"))
	children, err := exp.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 0 {
		t.Error("unknown constant should have no children")
	}
	// Unknown predicate behaves the same way.
	root2 := exp.Root(goals(t, "zzz(a)"))
	children2, err := exp.Expand(root2)
	if err != nil || len(children2) != 0 {
		t.Error("unknown predicate should fail silently")
	}
}

func TestExpandDepthLimit(t *testing.T) {
	db, _, err := kb.LoadString("loop(X) :- loop(X).")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExpander(db, weights.NewUniform(weights.Config{N: 16, A: 4}))
	n := exp.Root(goals(t, "loop(a)"))
	for i := 0; i < 4; i++ {
		cs, err := exp.Expand(n)
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
		n = cs[0]
	}
	if _, err := exp.Expand(n); err != ErrDepthLimit {
		t.Errorf("got %v, want ErrDepthLimit", err)
	}
}

func TestExpandSolutionNodeErrors(t *testing.T) {
	_, exp := setup(t, fig1)
	n := &Node{} // empty goals = solution
	if _, err := exp.Expand(n); err == nil {
		t.Error("expanding a solution node must error")
	}
}

func TestVariableRenamingAcrossActivations(t *testing.T) {
	// Two activations of the same clause must not share variables.
	db, _, err := kb.LoadString("p(X, Y) :- q(X), q(Y).\nq(1).\nq(2).")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExpander(db, weights.NewUniform(weights.DefaultConfig()))
	root := exp.Root(goals(t, "p(A,B)"))
	l1, _ := exp.Expand(root)
	l2, _ := exp.Expand(l1[0]) // q(X): 2 matches
	if len(l2) != 2 {
		t.Fatalf("q(X) matches = %d", len(l2))
	}
	l3, _ := exp.Expand(l2[0]) // q(Y): 2 matches even though X bound
	if len(l3) != 2 {
		t.Fatalf("q(Y) matches = %d, want 2", len(l3))
	}
}

// nodeSolution detaches solution node n's answer to the query variables
// qvars, as the Env frontier does.
func nodeSolution(n *Node, qvars []*term.Var) Solution {
	terms := make([]term.Term, len(qvars))
	for i, v := range qvars {
		terms[i] = v
	}
	return Answer{Bound: n.Bound, Depth: n.Depth, Env: n.Env, Terms: terms, Vars: qvars}.Solution(nil)
}

func TestNodeSolution(t *testing.T) {
	_, exp := setup(t, fig1)
	qgoals := goals(t, "f(sam,Y)")
	qvars := term.VarsUnder(nil, qgoals[0], nil)
	root := exp.Root(qgoals)
	children, _ := exp.Expand(root)
	sol := nodeSolution(children[0], qvars)
	if got := sol.Values[0].String(); got != "larry" {
		t.Errorf("Y = %s, want larry", got)
	}
	if sol.Depth != 1 {
		t.Error("solution depth wrong")
	}
	if got := sol.Format(qvars); got != "Y = larry" {
		t.Errorf("Format = %q", got)
	}
	if got := (Solution{}).Format(nil); got != "true" {
		t.Errorf("ground query format = %q", got)
	}
}

func TestWeightedBoundAccumulates(t *testing.T) {
	db, _, err := kb.LoadString(fig1)
	if err != nil {
		t.Fatal(err)
	}
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	arcRule0 := kb.Arc{Caller: kb.Query, Pos: 0, Callee: 0}
	tab.Set(arcRule0, 3)
	exp := NewExpander(db, tab)
	root := exp.Root(goals(t, "gf(sam,G)"))
	children, _ := exp.Expand(root)
	if children[0].Bound != 3 {
		t.Errorf("bound = %v, want known 3", children[0].Bound)
	}
	if children[1].Bound != tab.Config().UnknownWeight() {
		t.Errorf("bound = %v, want unknown N+1", children[1].Bound)
	}
}

func TestRecordTreeLabels(t *testing.T) {
	_, exp := setup(t, fig1)
	exp.RecordTree = true
	root := exp.Root(goals(t, "f(sam,Y)"))
	children, _ := exp.Expand(root)
	if children[0].Parent != root {
		t.Error("parent link missing")
	}
	if children[0].Label != "f(sam,larry)" {
		t.Errorf("label = %q", children[0].Label)
	}
}

func BenchmarkExpandFanout(b *testing.B) {
	db, _, err := kb.LoadString(fig1)
	if err != nil {
		b.Fatal(err)
	}
	exp := NewExpander(db, weights.NewUniform(weights.DefaultConfig()))
	gs, _ := parse.Query("f(X,Y)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := exp.Root(gs)
		if cs, _ := exp.Expand(root); len(cs) != 6 {
			b.Fatal("bad fanout")
		}
	}
}
