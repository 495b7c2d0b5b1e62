package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"blog"
	"blog/internal/workload"
)

func getJSON(t testing.TB, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("bad body %q: %v", data, err)
	}
}

// TestTablesAndEventsEndpoints drives the table-space observability end to
// end: a tabled query materializes a table that GET /tables ranks with
// state, size and hits; an identical weight reload leaves it standing (no
// wipe stampede); a clause assert dirty-marks it and the re-query
// re-derives; and GET /events replays the whole lifecycle — created,
// completed, invalidated with its cause, revalidated (extended from the
// old answers) — stamped with the producing query's request ID.
func TestTablesAndEventsEndpoints(t *testing.T) {
	s, ts := newTestServer(t, tabledSrc, Config{})
	client := ts.Client()

	got := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,X)", Strategy: "dfs", Tabled: true})
	if len(got.Solutions) == 0 {
		t.Fatalf("tabled query found no solutions: %+v", got)
	}
	if !strings.HasPrefix(got.RequestID, "q-") {
		t.Fatalf("response request_id = %q, want q-XXXXXX", got.RequestID)
	}
	// Second query hits the complete table, so /tables shows a hit.
	queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,X)", Strategy: "dfs", Tabled: true})

	var tables TablesResponse
	getJSON(t, client, ts.URL+"/tables", &tables)
	if tables.Complete != 1 || tables.Producing != 0 || len(tables.Tables) != 1 {
		t.Fatalf("tables = %+v, want one complete table", tables)
	}
	entry := tables.Tables[0]
	if entry.State != "complete" || entry.Pred != "path/2" {
		t.Errorf("entry = %+v, want complete path/2", entry)
	}
	if entry.Bytes <= 0 || tables.RetainedBytes != entry.Bytes {
		t.Errorf("retained bytes: entry %d total %d, want matching nonzero", entry.Bytes, tables.RetainedBytes)
	}
	if entry.Answers != 4 || entry.Hits == 0 || entry.AgeMs < 0 {
		t.Errorf("entry = %+v, want 4 answers and at least one hit", entry)
	}
	if len(entry.Deps) == 0 {
		t.Errorf("entry = %+v, want recorded dependency set", entry)
	}

	// Reloading an identical weight table (same N and A) must leave the
	// memoized table standing — the old whole-space wipe on every weight
	// load was the stampede this subsystem exists to prevent.
	var buf bytes.Buffer
	if err := s.program.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.program.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	getJSON(t, client, ts.URL+"/tables", &tables)
	if tables.Complete != 1 || len(tables.Tables) != 1 {
		t.Fatalf("tables after identical LoadWeights = %+v, want the table standing", tables)
	}

	// Asserting a clause for edge/2 — a dependency of the path/2 fixpoint
	// — dirty-marks the table; the next query re-derives it with the new
	// fact and journals the completion as a revalidation.
	if err := s.program.Assert("edge(d, e)."); err != nil {
		t.Fatal(err)
	}
	getJSON(t, client, ts.URL+"/tables", &tables)
	if tables.Dirty != 1 || len(tables.Tables) != 1 || tables.Tables[0].State != "dirty" {
		t.Fatalf("tables after assert = %+v, want one dirty table", tables)
	}
	requery := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,X)", Strategy: "dfs", Tabled: true})
	if len(requery.Solutions) != len(got.Solutions)+1 {
		t.Fatalf("post-assert solutions = %d, want %d", len(requery.Solutions), len(got.Solutions)+1)
	}
	getJSON(t, client, ts.URL+"/tables", &tables)
	if tables.Complete != 1 || tables.Dirty != 0 || tables.Tables[0].Revalidations != 1 {
		t.Fatalf("tables after re-derivation = %+v, want one clean revalidated table", tables)
	}

	var events EventsResponse
	getJSON(t, client, ts.URL+"/events", &events)
	if events.LastSeq == 0 {
		t.Fatal("journal empty after table lifecycle")
	}
	byKind := map[string][]blog.Event{}
	for _, ev := range events.Events {
		byKind[ev.Kind] = append(byKind[ev.Kind], ev)
	}
	created := byKind["table_created"]
	completed := byKind["table_completed"]
	invalidated := byKind["table_invalidated"]
	revalidated := byKind["table_revalidated"]
	if len(created) != 1 || len(completed) != 1 || len(invalidated) != 1 || len(revalidated) != 1 {
		t.Fatalf("lifecycle events = created %d completed %d invalidated %d revalidated %d, want 1 each (events: %+v)",
			len(created), len(completed), len(invalidated), len(revalidated), events.Events)
	}
	if created[0].Pred != "path/2" || created[0].RequestID != got.RequestID {
		t.Errorf("created = %+v, want path/2 from %s", created[0], got.RequestID)
	}
	if completed[0].Count != 4 || completed[0].Bytes <= 0 || completed[0].Rounds == 0 {
		t.Errorf("completed = %+v, want 4 answers, bytes and rounds", completed[0])
	}
	if invalidated[0].Cause != "assert" || invalidated[0].Count != 1 || invalidated[0].Pred != "edge/2" {
		t.Errorf("invalidated = %+v, want cause assert dirty-marking 1 table downstream of edge/2", invalidated[0])
	}
	if revalidated[0].Count != 5 || revalidated[0].RequestID != requery.RequestID {
		t.Errorf("revalidated = %+v, want 5 answers from %s", revalidated[0], requery.RequestID)
	}
	// path/2 reaches no \+, so its re-derivation starts from the 4 old
	// answers.
	if revalidated[0].Detail != "extended from 4 answers" {
		t.Errorf("revalidated detail = %q, want \"extended from 4 answers\"", revalidated[0].Detail)
	}
	if _, data := get(t, client, ts.URL+"/metrics"); !strings.Contains(string(data), "blogd_tables_revalidated_total 1\nblogd_tables_extended_total 1\n") {
		t.Errorf("/metrics lacks one revalidated, extended table:\n%s", data)
	}
	if created[0].Seq >= completed[0].Seq || completed[0].Seq >= invalidated[0].Seq || invalidated[0].Seq >= revalidated[0].Seq {
		t.Errorf("event order %d %d %d %d not increasing",
			created[0].Seq, completed[0].Seq, invalidated[0].Seq, revalidated[0].Seq)
	}

	// Kind filter and cursor.
	var filtered EventsResponse
	getJSON(t, client, ts.URL+"/events?kind=table_invalidated", &filtered)
	if len(filtered.Events) != 1 || filtered.Events[0].Kind != "table_invalidated" {
		t.Errorf("kind filter returned %+v", filtered.Events)
	}
	var tail EventsResponse
	getJSON(t, client, ts.URL+"/events?after="+jsonUint(events.LastSeq), &tail)
	if len(tail.Events) != 0 {
		t.Errorf("cursor past end returned %+v", tail.Events)
	}
}

func jsonUint(v uint64) string {
	data, _ := json.Marshal(v)
	return string(data)
}

// TestKillCarriesRequestID pins the 410 contract: the victim of a
// DELETE /debug/queries/{id} kill answers with the q-%06d request ID in
// its error body, so the two sides of the kill correlate.
func TestKillCarriesRequestID(t *testing.T) {
	// A DFS for an absent node in a dense DAG runs until killed (same
	// victim shape as TestDebugQueriesAndKill).
	_, ts := newTestServer(t, workload.DAG(18, 8, 4, 1), Config{DefaultTimeout: time.Minute})
	client := ts.Client()

	done := make(chan ErrorResponse, 1)
	go func() {
		raw, _ := json.Marshal(QueryRequest{Goal: "path(n0_0, missing)", Strategy: "dfs", MaxExpansions: 1 << 40})
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- ErrorResponse{Error: err.Error()}
			return
		}
		defer resp.Body.Close()
		var body ErrorResponse
		data, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(data, &body)
		if resp.StatusCode != http.StatusGone {
			body.Error = "status " + resp.Status + ": " + body.Error
		}
		done <- body
	}()

	// Wait for the query to appear in the inspector, then kill it.
	var id string
	for i := 0; i < 400; i++ {
		var live []LiveQuery
		getJSON(t, client, ts.URL+"/debug/queries", &live)
		if len(live) > 0 {
			id = live[0].ID
			break
		}
		select {
		case body := <-done:
			t.Fatalf("query finished before kill: %+v", body)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	if id == "" {
		t.Fatal("query never appeared in inspector")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/debug/queries/"+id, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	body := <-done
	if body.RequestID != id {
		t.Fatalf("410 body = %+v, want request_id %s", body, id)
	}
}
