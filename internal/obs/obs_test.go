package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"blog/internal/term"
)

func TestTracePhaseRegistryAndFinish(t *testing.T) {
	tr := NewTrace("query")
	p := tr.Phase("parse")
	p.End()
	s := tr.Phase("search")
	// A span addressed to an open phase nests under it; table fixpoints
	// use exactly this to parent under "search" without plumbing the span.
	fix := tr.Span("search", "fixpoint p/2")
	r1 := fix.Child("round 1")
	r1.SetCount("answers", 3)
	r1.End()
	fix.SetCount("rounds", 1)
	fix.End()
	// An unknown parent falls back to the root rather than vanishing.
	stray := tr.Span("no-such-phase", "stray")
	stray.End()
	_ = s // left open: Finish must close it

	root := tr.Finish()
	if root.Name != "query" || len(root.Children) != 3 {
		t.Fatalf("root = %q with %d children, want query with 3", root.Name, len(root.Children))
	}
	search := root.Children[1]
	if search.Name != "search" || len(search.Children) != 1 || search.Children[0].Name != "fixpoint p/2" {
		t.Fatalf("search subtree wrong: %+v", search)
	}
	if !strings.Contains(root.Render(), "rounds=1") {
		t.Errorf("Render lacks counts:\n%s", root.Render())
	}
	if search.DurUs <= 0 {
		t.Error("Finish did not close the open search phase")
	}
	// Idempotent: a second Finish returns the same closed tree.
	if again := tr.Finish(); again != root {
		t.Error("Finish not idempotent")
	}
	// Nil-safety of the disabled path.
	var none *Trace
	if none.Finish() != nil || none.Phase("x") != nil {
		t.Error("nil trace not inert")
	}
	none.Phase("x").End()
	none.Span("a", "b").Child("c").SetCount("k", 1)
}

func TestProfilerCellsAndMerge(t *testing.T) {
	a, b := term.Intern("obs_test_pred_a"), term.Intern("obs_test_pred_b")
	p := NewProfiler()
	c := p.Cell(a, 2)
	c.Expansions.Add(5)
	c.Nanos.Add(100)
	if p.Cell(a, 2) != c {
		t.Fatal("second Cell lookup returned a different cell")
	}
	p.TableHit(b, 1)
	p.TableMiss(b, 1)

	q := NewProfiler()
	q.Cell(a, 2).Nanos.Add(50)
	p.Merge(q)
	if got := p.Cell(a, 2).Nanos.Load(); got != 150 {
		t.Errorf("merged nanos = %d, want 150", got)
	}
	snap := p.Snapshot()
	if len(snap) != 2 || snap[0].Pred != "obs_test_pred_a/2" {
		t.Fatalf("snapshot = %+v, want a/2 hottest of 2", snap)
	}
	if snap[1].TableHits != 1 || snap[1].TableMisses != 1 {
		t.Errorf("table counters lost: %+v", snap[1])
	}
	if got := p.TotalNanos(); got != 150 {
		t.Errorf("TotalNanos = %d, want 150", got)
	}
	if top := p.Top(1); len(top) != 1 || top[0].Expansions != 5 {
		t.Errorf("Top(1) = %+v", top)
	}
	// Reset zeroes the counters and keeps the cells; a reset profiler
	// merges nothing.
	p.Reset()
	if len(p.Snapshot()) != 0 || p.Cell(a, 2) != c || c.Nanos.Load() != 0 {
		t.Errorf("after Reset: snapshot %+v, cell kept %v", p.Snapshot(), p.Cell(a, 2) == c)
	}
	r := NewProfiler()
	r.Merge(p)
	if cs := r.cells.Load(); cs != nil {
		t.Error("merging a reset profiler created cells")
	}
	// Nil receiver: every entry point is inert.
	var none *Profiler
	if none.Cell(a, 2) != nil || none.Snapshot() != nil || none.TotalNanos() != 0 {
		t.Error("nil profiler not inert")
	}
	none.TableHit(a, 2)
	none.Merge(p)
	p.Merge(nil)
}

// spin busy-waits for d, which time.Sleep overshoots at this scale.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func TestMeterAttribution(t *testing.T) {
	p := NewProfiler()
	a, b := term.Intern("obs_test_meter_a"), term.Intern("obs_test_meter_b")
	neg := term.Intern("obs_test_meter_neg")
	m := new(Meter).Start(p)
	// Alternate a and b over three windows and part of a fourth: a binds
	// 3 per interval, b undoes 2, and every interval dispatches once.
	const n = 3*meterWindow + 5
	var binds, undos uint64
	var first time.Time
	begin := time.Now()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			m.Note(a, 1, binds, undos)
			binds += 3
		} else {
			m.Note(b, 1, binds, undos)
			undos += 2
		}
		if i == 0 {
			first = time.Now()
		}
		m.Dispatch()
		spin(50 * time.Microsecond)
	}
	last := time.Now()
	m.Flush(binds, undos)
	end := time.Now()
	ca, cb := p.Cell(a, 1), p.Cell(b, 1)
	const na, nb = (n + 1) / 2, n / 2
	if ca.Expansions.Load() != na || ca.VMDispatches.Load() != na || cb.Expansions.Load() != nb || cb.VMDispatches.Load() != nb {
		t.Errorf("counts a %d/%d, b %d/%d, want %d and %d each", ca.Expansions.Load(), ca.VMDispatches.Load(),
			cb.Expansions.Load(), cb.VMDispatches.Load(), na, nb)
	}
	if ca.TrailBinds.Load() != 3*na || ca.TrailUndos.Load() != 0 || cb.TrailBinds.Load() != 0 || cb.TrailUndos.Load() != 2*nb {
		t.Errorf("deltas a %d/%d, b %d/%d, want %d/0 and 0/%d", ca.TrailBinds.Load(), ca.TrailUndos.Load(),
			cb.TrailBinds.Load(), cb.TrailUndos.Load(), 3*na, 2*nb)
	}
	// The nanosecond sum is the wall time from the first Note to Flush,
	// which lies between the times taken just inside and just outside
	// those two calls (about 5ms, with gaps of nanoseconds between them
	// unless the test is descheduled there).
	if sum := time.Duration(p.TotalNanos()); sum < last.Sub(first) || sum > end.Sub(begin) {
		t.Errorf("charged %v from first Note to Flush, want between %v and %v", sum, last.Sub(first), end.Sub(begin))
	}
	// A bracketed nested run is charged whole to its predicate, wherever
	// it falls in a window; a gets only the time outside the bracket.
	before := ca.Nanos.Load()
	t0 := time.Now()
	m.Note(a, 1, binds, undos)
	m.Note(neg, 1, binds, undos)
	m.Pause()
	t1 := time.Now()
	spin(2 * time.Millisecond)
	m.Pause()
	t2 := time.Now()
	m.Note(a, 1, binds, undos)
	m.Flush(binds, undos)
	t3 := time.Now()
	if got := p.Cell(neg, 1).Nanos.Load(); got < uint64(2*time.Millisecond) {
		t.Errorf("bracketed interval charged %dns, want >= 2ms", got)
	}
	if got, out := time.Duration(ca.Nanos.Load()-before), t1.Sub(t0)+t3.Sub(t2); got > out {
		t.Errorf("a charged %v around the bracket, more than the %v outside it", got, out)
	}
	// Skip after Pause drops the time between them.
	before = ca.Nanos.Load()
	t0 = time.Now()
	m.Note(a, 1, binds, undos)
	m.Pause()
	t1 = time.Now()
	spin(time.Millisecond)
	t2 = time.Now()
	m.Skip()
	m.Flush(binds, undos)
	t3 = time.Now()
	if got, out := time.Duration(ca.Nanos.Load()-before), t1.Sub(t0)+t3.Sub(t2); got > out {
		t.Errorf("Skip still charged %v, more than the %v outside Pause and Skip", got, out)
	}
	// A released meter starts its next run clean, on another profiler.
	m.Release()
	q := NewProfiler()
	m = m.Start(q)
	m.Note(a, 1, 0, 0)
	m.Flush(0, 0)
	if q.Cell(a, 1).Expansions.Load() != 1 || ca.Expansions.Load() != na+3 {
		t.Errorf("after Release: expansions %d on the new profiler, %d on the old, want 1 and %d",
			q.Cell(a, 1).Expansions.Load(), ca.Expansions.Load(), na+3)
	}
	// A nil meter (profiling off) is inert.
	var none *Meter
	none.Flush(0, 0)
	none.Pause()
	none.Skip()
	none.Dispatch()
	none.Release()
	if none.Start(nil) != nil || m.Start(nil) != nil {
		t.Error("Start without a profiler returned a meter")
	}
}

func TestRequestIDs(t *testing.T) {
	for n, want := range map[uint64]string{1: "q-000001", 255: "q-000255", 256: "q-000256", 1_000_000: "q-1000000"} {
		if got := requestID(n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
	r := NewRegistry()
	if id := r.Add("g", "dfs", nil).ID; id != "q-000001" {
		t.Errorf("first ID = %q, want q-000001", id)
	}
	if a := testing.AllocsPerRun(100, func() { r.Remove(r.Add("g", "dfs", nil)) }); a > 2 {
		t.Errorf("Add allocates %v times, want at most 2 (the entry and its ID)", a)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l1 := r.Add("g1", "dfs", cancel)
	l2 := r.Add("g2", "bfs", nil)
	l1.Context, l2.Context = ctx, context.Background()
	if l1.ID == l2.ID || !strings.HasPrefix(l1.ID, "q-") {
		t.Fatalf("ids %q %q", l1.ID, l2.ID)
	}
	if r.Get(l1.ID) != l1 || r.Get("q-999999") != nil {
		t.Error("Get broken")
	}
	if list := r.List(); len(list) != 2 || list[0] != l1 {
		t.Fatalf("List = %+v, want [l1 l2] oldest first", list)
	}
	// The entry is the query's context: it carries the request ID to
	// contexts derived from it, and a kill cancels the one it wraps.
	derived, stop := context.WithCancel(l1)
	defer stop()
	if RequestID(derived) != l1.ID || RequestID(l2) != l2.ID || RequestID(ctx) != "" {
		t.Error("request IDs do not travel through the entry")
	}
	if l1.Killed() {
		t.Error("killed before Cancel")
	}
	l1.Cancel()
	<-derived.Done()
	if !l1.Killed() || !errors.Is(l1.Err(), context.Canceled) || l2.Killed() {
		t.Errorf("after Cancel: killed %v, err %v; l2 killed %v", l1.Killed(), l1.Err(), l2.Killed())
	}
	l2.Cancel() // no cancel function: records the kill only
	if !l2.Killed() || l2.Err() != nil {
		t.Errorf("l2 after Cancel: killed %v, err %v", l2.Killed(), l2.Err())
	}
	r.Remove(l1)
	r.Remove(l1) // idempotent
	if list := r.List(); len(list) != 1 || list[0] != l2 {
		t.Fatalf("List after remove = %+v", list)
	}
}
