package table_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"blog/internal/kb"
	"blog/internal/solve"
	"blog/internal/table"
)

// snapshotSrc exercises all three persistence classes: a plain variant
// table (path/2), an answer-subsumption lattice (shortest/3 min(3)), and
// a table that truncates at the space's depth bound (top/1 behind a
// 13-deep chain) — the last must never be written.
const snapshotSrc = `
:- table path/2.
:- table shortest/3 min(3).
:- table top/1.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c). edge(c, a). edge(c, d).
shortest(X, Z, C) :- shortest(X, Y, A), wedge(Y, Z, B), C is A + B.
shortest(X, Y, C) :- wedge(X, Y, C).
wedge(a, b, 4). wedge(a, c, 1). wedge(c, b, 1). wedge(b, a, 1).
top(X) :- chain0(X).
chain0(X) :- chain1(X).
chain1(X) :- chain2(X).
chain2(X) :- chain3(X).
chain3(X) :- chain4(X).
chain4(X) :- chain5(X).
chain5(X) :- chain6(X).
chain6(X) :- chain7(X).
chain7(X) :- chain8(X).
chain8(X) :- chain9(X).
chain9(X) :- chain10(X).
chain10(X) :- chain11(X).
chain11(X) :- chain12(X).
chain12(done).
`

var snapshotQueries = []string{"path(a, Z)", "shortest(a, Y, C)", "top(R)"}

// buildSnapshotSpace loads snapshotSrc, materializes all three tables at
// a depth bound that truncates top/1, and returns the db and space.
func buildSnapshotSpace(t *testing.T) (*kb.DB, *table.Space) {
	t.Helper()
	db, _, err := kb.LoadString(snapshotSrc)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{MaxDepth: 8})
	for _, q := range snapshotQueries {
		tabledAnswers(t, db, sp, q, solve.DFS)
	}
	return db, sp
}

// TestSnapshotRoundTrip is the persistence property test: write a space
// holding plain, min(N), and truncated tables; load into a fresh space;
// truncated tables are skipped; the accounting matches exactly; and the
// loaded answers are byte-identical to what a from-scratch re-derivation
// produces — served as replay, with no new table production.
func TestSnapshotRoundTrip(t *testing.T) {
	db, spA := buildSnapshotSpace(t)

	infoByPred := func(sp *table.Space) map[string]table.Info {
		m := map[string]table.Info{}
		for _, ti := range sp.Tables() {
			m[ti.Pred] = ti
		}
		return m
	}
	aInfos := infoByPred(spA)
	if len(aInfos) != 3 || !aInfos["top/1"].Truncated {
		t.Fatalf("builder space = %+v, want 3 tables with top/1 truncated", aInfos)
	}

	var buf bytes.Buffer
	n, err := spA.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d tables, want 2 (truncated top/1 excluded)", n)
	}

	spB := table.NewSpace(db, table.Config{MaxDepth: 8})
	loaded, skipped, err := spB.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 || skipped != 0 {
		t.Fatalf("loaded %d skipped %d, want 2 and 0", loaded, skipped)
	}

	// Accounting must match the saved tables exactly: byte-for-byte
	// retained size, answer counts, hit counters carried through.
	bInfos := infoByPred(spB)
	var wantBytes, gotBytes int64
	for _, pred := range []string{"path/2", "shortest/3"} {
		a, b := aInfos[pred], bInfos[pred]
		if !b.Complete || b.Dirty || b.Truncated {
			t.Fatalf("loaded %s = %+v, want clean complete", pred, b)
		}
		if b.Answers != a.Answers || b.Bytes != a.Bytes || b.Hits != a.Hits || b.Min != a.Min {
			t.Fatalf("loaded %s = %+v, want the saved accounting %+v", pred, b, a)
		}
		if fmt.Sprint(b.Deps) != fmt.Sprint(a.Deps) {
			t.Fatalf("loaded %s deps = %v, want %v", pred, b.Deps, a.Deps)
		}
		wantBytes += a.Bytes
		gotBytes += b.Bytes
	}
	if acct := spB.Accounting(); acct.Complete != 2 || acct.RetainedBytes != gotBytes || gotBytes != wantBytes {
		t.Fatalf("accounting = %+v, want 2 complete tables retaining %d bytes", acct, wantBytes)
	}

	// The loaded tables serve by replay: answers byte-identical to an
	// independent re-derivation, no production in the loaded space.
	spC := table.NewSpace(db, table.Config{MaxDepth: 8})
	for _, q := range snapshotQueries[:2] {
		preTot := spB.Totals()
		fromLoad := tabledAnswers(t, db, spB, q, solve.DFS)
		fromScratch := tabledAnswers(t, db, spC, q, solve.DFS)
		if fmt.Sprint(fromLoad) != fmt.Sprint(fromScratch) {
			t.Fatalf("%q: loaded answers %v != re-derived %v", q, fromLoad, fromScratch)
		}
		postTot := spB.Totals()
		if postTot.Created != preTot.Created || postTot.Hits != preTot.Hits+1 {
			t.Fatalf("%q: totals %+v -> %+v, want a pure table hit with no production", q, preTot, postTot)
		}
	}
	// And the re-derived tables' footprints equal the loaded ones:
	// Bytes stays exact across save, load, and recomputation.
	cInfos := infoByPred(spC)
	for _, pred := range []string{"path/2", "shortest/3"} {
		if cInfos[pred].Bytes != bInfos[pred].Bytes {
			t.Fatalf("%s: re-derived %d bytes, loaded %d — footprint must be exact", pred, cInfos[pred].Bytes, bInfos[pred].Bytes)
		}
	}
}

// TestSnapshotQuotedFunctors: answers built on the solo atoms [] and !
// (and on other names that need quotes) are written as text that reads
// back, so their table loads instead of being skipped on every boot.
func TestSnapshotQuotedFunctors(t *testing.T) {
	db, _, err := kb.LoadString(":- table odd/1.\nodd('[]'(1)).\nodd('!'(a, [])).\nodd('{}'(':-', '?-')).\n")
	if err != nil {
		t.Fatal(err)
	}
	spA := table.NewSpace(db, table.Config{})
	want := tabledAnswers(t, db, spA, "odd(X)", solve.DFS)
	var buf bytes.Buffer
	if n, err := spA.WriteSnapshot(&buf); err != nil || n != 1 {
		t.Fatalf("write = %d, %v", n, err)
	}
	spB := table.NewSpace(db, table.Config{})
	if loaded, skipped, err := spB.ReadSnapshot(&buf); err != nil || loaded != 1 || skipped != 0 {
		t.Fatalf("loaded %d skipped %d (%v), want the table loaded", loaded, skipped, err)
	}
	created := spB.Totals().Created
	got := tabledAnswers(t, db, spB, "odd(X)", solve.DFS)
	if fmt.Sprint(got) != fmt.Sprint(want) || spB.Totals().Created != created {
		t.Fatalf("loaded table serves %v (tables created %d -> %d), want %v by replay", got, created, spB.Totals().Created, want)
	}
}

// TestSnapshotSkipsOverDeepAnswers: an answer nested deeper than the
// reader's 10 000 levels is written as text the reader rejects, so its
// table is skipped at load and re-derives on first touch, while the
// other tables load.
func TestSnapshotSkipsOverDeepAnswers(t *testing.T) {
	db, _, err := kb.LoadString(`
:- table deep/1.
:- table path/2.
deep(X) :- mk(10001, X).
mk(0, a).
mk(N, f(X)) :- N > 0, M is N - 1, mk(M, X).
path(X, Y) :- edge(X, Y).
edge(a, b).
`)
	if err != nil {
		t.Fatal(err)
	}
	spA := table.NewSpace(db, table.Config{MaxDepth: 20_000})
	want := tabledAnswers(t, db, spA, "deep(X)", solve.DFS)
	tabledAnswers(t, db, spA, "path(a, Y)", solve.DFS)
	var buf bytes.Buffer
	if n, err := spA.WriteSnapshot(&buf); err != nil || n != 2 {
		t.Fatalf("write = %d, %v; want both tables", n, err)
	}
	spB := table.NewSpace(db, table.Config{MaxDepth: 20_000})
	if loaded, skipped, err := spB.ReadSnapshot(&buf); err != nil || loaded != 1 || skipped != 1 {
		t.Fatalf("loaded %d skipped %d (%v), want path/2 loaded and deep/1 skipped", loaded, skipped, err)
	}
	created := spB.Totals().Created
	if got := tabledAnswers(t, db, spB, "deep(X)", solve.DFS); fmt.Sprint(got) != fmt.Sprint(want) || spB.Totals().Created != created+1 {
		t.Fatalf("deep(X) after the load: %d answers (tables created %d -> %d), want the answer re-derived", len(got), created, spB.Totals().Created)
	}
}

// TestSnapshotSkipsStaleAndDirty pins the validation half: a clause
// assert after save changes the dependency fingerprint, so the affected
// table is skipped at load (and re-derives with the new fact) while the
// untouched table loads; and a dirty table is never written out.
func TestSnapshotSkipsStaleAndDirty(t *testing.T) {
	db, spA := buildSnapshotSpace(t)
	var buf bytes.Buffer
	if n, err := spA.WriteSnapshot(&buf); err != nil || n != 2 {
		t.Fatalf("write = %d, %v", n, err)
	}

	// Mutating edge/2 invalidates path/2's recorded fingerprint;
	// shortest/3 depends on wedge/3 and stays loadable.
	assertFact(t, db, "edge(d, e)")

	spB := table.NewSpace(db, table.Config{MaxDepth: 8})
	loaded, skipped, err := spB.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || skipped != 1 {
		t.Fatalf("loaded %d skipped %d, want the stale path/2 record skipped", loaded, skipped)
	}
	for _, ti := range spB.Tables() {
		if ti.Pred != "shortest/3" {
			t.Fatalf("loaded table = %+v, want only shortest/3", ti)
		}
	}
	// The skipped table re-derives on demand and sees the asserted fact.
	got := tabledAnswers(t, db, spB, "path(a, Z)", solve.DFS)
	if fmt.Sprint(got) != "[Z = a Z = b Z = c Z = d Z = e]" {
		t.Fatalf("re-derived path = %v, want the post-assert closure", got)
	}

	// Back in the builder space the assert dirty-marked path/2; a new
	// snapshot must exclude it (persisting known-stale answers would
	// re-introduce the staleness the dirty mark prevents).
	var buf2 bytes.Buffer
	if n, err := spA.WriteSnapshot(&buf2); err != nil || n != 1 {
		t.Fatalf("post-assert write = %d, %v; want only clean shortest/3", n, err)
	}
}

// TestSnapshotRejectsBadStreams: garbage and version-mismatched headers
// abort the load with an error instead of installing partial state.
func TestSnapshotRejectsBadStreams(t *testing.T) {
	db, _, err := kb.LoadString(snapshotSrc)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	if _, _, err := sp.ReadSnapshot(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, _, err := sp.ReadSnapshot(strings.NewReader(`{"v":99,"tables":0}` + "\n")); err == nil {
		t.Fatal("future version accepted")
	}
	if _, _, err := sp.ReadSnapshot(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
	if sp.Len() != 0 {
		t.Fatalf("rejected loads left %d tables", sp.Len())
	}
}

// TestSnapshotWriteDuringQueries runs WriteSnapshot concurrently with
// live tabled queries (run under -race): the writer snapshots the table
// set under the read lock and complete answer lists are immutable, so
// neither side may trip the race detector or corrupt the stream.
func TestSnapshotWriteDuringQueries(t *testing.T) {
	db, sp := buildSnapshotSpace(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queries := []string{"path(a, Z)", "path(b, Z)", "shortest(a, Y, C)"}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				tabledAnswers(t, db, sp, queries[(i+j)%len(queries)], solve.DFS)
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		n, err := sp.WriteSnapshot(&buf)
		if err != nil {
			t.Errorf("concurrent write %d: %v", i, err)
			break
		}
		if n < 2 {
			t.Errorf("concurrent write %d: %d tables, want at least the 2 seeded", i, n)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotLoadDuringQueries races boot-time ReadSnapshot against
// queries arriving on the same fresh space (run under -race): whichever
// side materializes a call pattern first wins, the other is skipped or
// served, and every query still gets the full answer set.
func TestSnapshotLoadDuringQueries(t *testing.T) {
	db, spA := buildSnapshotSpace(t)
	var buf bytes.Buffer
	if _, err := spA.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	spB := table.NewSpace(db, table.Config{MaxDepth: 8})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				got := tabledAnswers(t, db, spB, "path(a, Z)", solve.DFS)
				if fmt.Sprint(got) != "[Z = a Z = b Z = c Z = d]" {
					t.Errorf("answers during load = %v", got)
					return
				}
			}
		}()
	}
	if _, _, err := spB.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
