package machine

import (
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
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

func load(t testing.TB, src string) *kb.DB {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func q(t testing.TB, s string) []term.Term {
	t.Helper()
	gs, err := parse.Query(s)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func newMachine(t testing.TB, src string, cfg Config) *Machine {
	t.Helper()
	db := load(t, src)
	m, err := New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineFindsAllFig1Solutions(t *testing.T) {
	m := newMachine(t, fig1, DefaultConfig())
	rep, err := m.Run(q(t, "gf(sam,G)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solutions) != 2 {
		t.Fatalf("solutions = %d, want 2", len(rep.Solutions))
	}
	got := map[string]bool{}
	for _, s := range rep.Solutions {
		got[s.Solution.Values[0].String()] = true
	}
	if !got["den"] || !got["doug"] {
		t.Errorf("bindings = %v", got)
	}
	if !rep.Exhausted {
		t.Error("run should exhaust the tree")
	}
	if rep.Cycles <= 0 {
		t.Error("simulation must consume cycles")
	}
	if rep.FirstSolution <= 0 || rep.FirstSolution > rep.Cycles {
		t.Errorf("first solution at %d of %d", rep.FirstSolution, rep.Cycles)
	}
}

func TestMachineDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := newMachine(t, fig1, cfg).Run(q(t, "gf(sam,G)"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newMachine(t, fig1, cfg).Run(q(t, "gf(sam,G)"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Expanded != b.Expanded || a.PageIns != b.PageIns {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.Expanded, b.Cycles, b.Expanded)
	}
}

func TestMachineMaxSolutions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSolutions = 1
	rep, err := newMachine(t, fig1, cfg).Run(q(t, "gf(sam,G)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solutions) != 1 {
		t.Errorf("solutions = %d", len(rep.Solutions))
	}
	if rep.Exhausted {
		t.Error("early stop is not exhaustion")
	}
}

func TestMachinePageInCosts(t *testing.T) {
	// The recursive anc/2 clauses are touched at every expansion, so a
	// 2-block local memory thrashes while a large one pages each clause
	// at most once.
	src := workload.FamilyTree(4, 3)
	query := "anc(p0, X)"
	cfg := DefaultConfig()
	cfg.LocalBlocks = 2
	cfg.MaxDepth = 32
	rep, err := newMachine(t, src, cfg).Run(q(t, query))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PageIns == 0 || rep.PageInCycles == 0 {
		t.Error("tiny memory should force page-ins")
	}
	big := DefaultConfig()
	big.LocalBlocks = 100000
	big.MaxDepth = 32
	rep2, err := newMachine(t, src, big).Run(q(t, query))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PageIns >= rep.PageIns {
		t.Errorf("large memory paged %d blocks, tiny paged %d; want fewer", rep2.PageIns, rep.PageIns)
	}
	if len(rep.Solutions) != len(rep2.Solutions) {
		t.Error("memory size must not change the answer set")
	}
}

func TestMachineMoreProcessorsFaster(t *testing.T) {
	src := workload.FamilyTree(5, 3)
	goals := "anc(p0, X)"
	one := DefaultConfig()
	one.Processors = 1
	one.MaxDepth = 32
	r1, err := newMachine(t, src, one).Run(q(t, goals))
	if err != nil {
		t.Fatal(err)
	}
	eight := DefaultConfig()
	eight.Processors = 8
	eight.MaxDepth = 32
	r8, err := newMachine(t, src, eight).Run(q(t, goals))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Solutions) != len(r8.Solutions) {
		t.Fatalf("solution sets differ: %d vs %d", len(r1.Solutions), len(r8.Solutions))
	}
	if r8.Cycles >= r1.Cycles {
		t.Errorf("8 procs (%d cycles) should beat 1 proc (%d)", r8.Cycles, r1.Cycles)
	}
}

func TestMachineUtilizationBounds(t *testing.T) {
	rep, err := newMachine(t, workload.FamilyTree(4, 3), DefaultConfig()).Run(q(t, "gf(p0,G)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ProcUtil) != 4 {
		t.Fatalf("util slots = %d", len(rep.ProcUtil))
	}
	for i, u := range rep.ProcUtil {
		if u < 0 || u > 1 {
			t.Errorf("proc %d utilization %v", i, u)
		}
	}
	if len(rep.DiskStats) != DefaultConfig().Disks {
		t.Errorf("disk stats = %d", len(rep.DiskStats))
	}
}

func TestMachineEmptyQuery(t *testing.T) {
	m := newMachine(t, fig1, DefaultConfig())
	if _, err := m.Run(nil); err == nil {
		t.Error("empty query must error")
	}
}

func TestMachineCapacityValidation(t *testing.T) {
	db := load(t, workload.FamilyTree(6, 3))
	cfg := DefaultConfig()
	cfg.Disks = 1
	cfg.DiskGeometry.Cylinders = 1
	cfg.DiskGeometry.Surfaces = 1
	cfg.DiskGeometry.BlocksPerTrack = 4
	if _, err := New(cfg, db, weights.NewUniform(weights.DefaultConfig())); err == nil {
		t.Error("overflowing the disks must fail")
	}
}

func TestMachineFailingQuery(t *testing.T) {
	rep, err := newMachine(t, fig1, DefaultConfig()).Run(q(t, "gf(peg,G)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solutions) != 0 {
		t.Error("gf(peg,G) has no solutions")
	}
	if rep.FirstSolution != 0 {
		t.Error("no first-solution time for a failing query")
	}
	if !rep.Exhausted {
		t.Error("failing query should still exhaust")
	}
}

func TestMachineDepthLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDepth = 6
	rep, err := newMachine(t, "loop :- loop.", cfg).Run(q(t, "loop"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solutions) != 0 {
		t.Error("cyclic program has no solutions")
	}
}

func TestMachineLearning(t *testing.T) {
	db := load(t, fig1)
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	cfg := DefaultConfig()
	cfg.Learn = true
	m, err := New(cfg, db, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(q(t, "gf(sam,G)")); err != nil {
		t.Fatal(err)
	}
	if tab.Len() == 0 {
		t.Error("learning machine run should record weights")
	}
	// A second machine run guided by the learned weights reaches its
	// first solution in fewer cycles.
	cfg2 := DefaultConfig()
	cfg2.MaxSolutions = 1
	m2, err := New(cfg2, db, tab)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Run(q(t, "gf(sam,G)"))
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := DefaultConfig()
	cfg3.MaxSolutions = 1
	m3, err := New(cfg3, db, weights.NewTable(weights.Config{N: 16, A: 64}))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := m3.Run(q(t, "gf(sam,G)"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.FirstSolution > r3.FirstSolution {
		t.Errorf("learned machine first solution at %d, fresh at %d", r2.FirstSolution, r3.FirstSolution)
	}
}

func TestMachineAdaptiveD(t *testing.T) {
	src := workload.FamilyTree(5, 3)
	cfg := DefaultConfig()
	cfg.D = 0
	cfg.AdaptiveD = true
	cfg.LocalCap = 4
	cfg.MaxDepth = 32
	rep, err := newMachine(t, src, cfg).Run(q(t, "anc(p0, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DAdjustments == 0 {
		t.Error("adaptive controller never adjusted D")
	}
	if rep.DFinal == 0 {
		t.Error("D should have moved off 0 under heavy blocking")
	}
	// The answer set is unaffected by scheduling policy.
	fixed := DefaultConfig()
	fixed.D = 0
	fixed.LocalCap = 4
	fixed.MaxDepth = 32
	rep2, err := newMachine(t, src, fixed).Run(q(t, "anc(p0, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solutions) != len(rep2.Solutions) {
		t.Errorf("adaptive found %d solutions, fixed %d", len(rep.Solutions), len(rep2.Solutions))
	}
	// Heavy blocking must drive D up, suppressing migrations relative to
	// the pathological fixed D=0 (makespan is path-dependent and not
	// asserted; E5 records it).
	if rep.Migrations >= rep2.Migrations {
		t.Errorf("adaptive migrations %d should be below fixed D=0's %d", rep.Migrations, rep2.Migrations)
	}
}

func TestMachineSessionCarriesAdaptiveD(t *testing.T) {
	src := workload.FamilyTree(5, 3)
	db := load(t, src)
	cfg := DefaultConfig()
	cfg.D = 0
	cfg.AdaptiveD = true
	cfg.LocalCap = 4
	cfg.MaxDepth = 32
	m, err := New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]term.Term{
		q(t, "anc(p0, X)"), q(t, "anc(p0, X)"), q(t, "anc(p0, X)"),
	}
	reps, err := m.RunSession(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	// The first query starts at D=0 and tunes upward; later queries
	// inherit the tuned threshold, so they thrash less from cycle one.
	if reps[0].DFinal <= 0 {
		t.Error("first query should tune D above 0")
	}
	if reps[1].Migrations >= reps[0].Migrations {
		t.Errorf("warm query migrations %d should be below cold query's %d",
			reps[1].Migrations, reps[0].Migrations)
	}
	if reps[1].Cycles >= reps[0].Cycles {
		t.Errorf("warm query (%d cycles) should beat the cold query (%d)",
			reps[1].Cycles, reps[0].Cycles)
	}
	// Answers identical across the session.
	if len(reps[0].Solutions) != len(reps[2].Solutions) {
		t.Error("session queries must agree on answers")
	}
}

func BenchmarkMachineFig1(b *testing.B) {
	db := load(b, fig1)
	goals, _ := parse.Query("gf(sam,G)")
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(goals); err != nil {
			b.Fatal(err)
		}
	}
}
