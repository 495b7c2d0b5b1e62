package table

// snapshot.go — the persistent table store: complete, non-truncated
// tables serialize to a line-oriented JSON snapshot and load back into a
// fresh space, so a blogd restart replays its hot answer tables instead
// of rebuilding every fixpoint from nothing.
//
// The codec leans on the same canonical forms the live space uses. Terms
// travel as source text (the canonical pattern and answers render with
// numbered _T variables and re-parse byte-identically), and each record
// carries the table's dependency set with a per-predicate clause
// fingerprint (kb.DB.Fingerprint). Loading validates per table: the
// predicate must still be tabled in the same mode, and every dependency's
// fingerprint must match the current database — a mismatch skips exactly
// that table (it re-derives on next touch), never the whole snapshot.
// Truncated tables are never written: they are depth-bound artifacts of
// the producing configuration, and untruncated tables are the ones that
// serve any depth, which is what makes the snapshot valid under a
// different -max-depth at the next boot. A table whose recorded stamps
// moved is skipped too: its answers predate the clauses the writer would
// fingerprint.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/parse"
	"blog/internal/term"
)

// snapshotVersion is the on-disk format version; a reader rejects files
// written by a different major layout.
const snapshotVersion = 1

// snapHeader is the first line of a snapshot file.
type snapHeader struct {
	V        int   `json:"v"`
	MaxDepth int   `json:"max_depth"`
	Tables   int   `json:"tables"`
	SavedAt  int64 `json:"saved_at"` // unixnano
}

// snapDep is one validated dependency edge: the predicate indicator and
// the fingerprint of its clause list at save time.
type snapDep struct {
	Pred string `json:"pred"`
	FP   uint64 `json:"fp"`
}

// snapRecord is one persisted table.
type snapRecord struct {
	Pred          string    `json:"pred"`
	Call          string    `json:"call"`
	Min           int       `json:"min,omitempty"`
	Deps          []snapDep `json:"deps"`
	Answers       []string  `json:"answers"`
	CreatedAt     int64     `json:"created_at"`
	CompletedAt   int64     `json:"completed_at"`
	Hits          uint64    `json:"hits,omitempty"`
	Rounds        int64     `json:"rounds,omitempty"`
	Revalidations int64     `json:"revalidations,omitempty"`
}

// WriteSnapshot serializes every complete, fresh, untruncated table to w
// and returns how many were written. Safe to call concurrently with
// queries and asserts: the table set is snapshotted under the read lock, a
// complete table's answer list is immutable, and each dependency's
// fingerprint is read together with its stamp, so a record is written
// only when every fingerprint describes the clauses its answers were
// derived from.
func (s *Space) WriteSnapshot(w io.Writer) (int, error) {
	s.mu.RLock()
	maxDepth := s.maxDepth
	list := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		if t.complete.Load() && !t.truncated {
			list = append(list, t)
		}
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].key < list[j].key })

	recs := make([]snapRecord, 0, len(list))
	var totalBytes int64
tables:
	for _, t := range list {
		rec := snapRecord{
			Pred:          t.pred,
			Call:          t.pattern.String(),
			Min:           t.min,
			Deps:          make([]snapDep, len(t.deps)),
			Answers:       make([]string, len(t.answers)),
			CreatedAt:     t.createdAt.UnixNano(),
			CompletedAt:   t.completedAt.Load(),
			Hits:          t.hits.Load(),
			Rounds:        t.rounds.Load(),
			Revalidations: t.revalidations.Load(),
		}
		for i, d := range t.deps {
			fp, stamp := s.db.Fingerprint(d.pred.Fn, d.pred.Arity)
			if stamp != d.stamp {
				s.sweep()
				continue tables
			}
			rec.Deps[i] = snapDep{Pred: d.pred.String(), FP: fp}
		}
		for i, a := range t.answers {
			rec.Answers[i] = a.String()
		}
		recs = append(recs, rec)
		totalBytes += t.bytes.Load()
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapHeader{
		V:        snapshotVersion,
		MaxDepth: maxDepth,
		Tables:   len(recs),
		SavedAt:  time.Now().UnixNano(),
	}); err != nil {
		return 0, err
	}
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	s.journal.Load().Emit(obs.Event{
		Kind:  obs.KindSnapshotSaved,
		Count: int64(len(recs)),
		Bytes: totalBytes,
	})
	return len(recs), nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot into the space,
// validating each table against the current database: the predicate must
// still be tabled in the recorded mode, every dependency's clause
// fingerprint must match, and every term must re-parse. A restored table
// records the stamps read with the fingerprints it matched. A table that
// fails validation — or whose call pattern already has a live table — is
// skipped and simply re-derives on next touch; a malformed header or
// stream aborts with an error. Returns (loaded, skipped).
func (s *Space) ReadSnapshot(r io.Reader) (loaded, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("table: snapshot is empty")
	}
	var hdr snapHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return 0, 0, fmt.Errorf("table: bad snapshot header: %w", err)
	}
	if hdr.V != snapshotVersion {
		return 0, 0, fmt.Errorf("table: snapshot version %d, want %d", hdr.V, snapshotVersion)
	}
	var totalBytes int64
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec snapRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return loaded, skipped, fmt.Errorf("table: bad snapshot record: %w", err)
		}
		t, bytes, ok := s.restore(&rec)
		if !ok {
			skipped++
			continue
		}
		s.mu.Lock()
		if _, exists := s.tables[t.key]; exists {
			s.mu.Unlock()
			skipped++
			continue
		}
		s.tables[t.key] = t
		s.mu.Unlock()
		s.created.Add(1)
		loaded++
		totalBytes += bytes
	}
	if err := sc.Err(); err != nil {
		return loaded, skipped, err
	}
	s.journal.Load().Emit(obs.Event{
		Kind:   obs.KindSnapshotLoaded,
		Count:  int64(loaded),
		Bytes:  totalBytes,
		Detail: fmt.Sprintf("skipped %d", skipped),
	})
	return loaded, skipped, nil
}

// restore validates one snapshot record against the current database and
// rebuilds its table object (already complete, not yet installed).
func (s *Space) restore(rec *snapRecord) (*Table, int64, bool) {
	call, err := parse.OneTerm(rec.Call)
	if err != nil {
		return nil, 0, false
	}
	fn, arity, ok := term.PredOf(call)
	if !ok {
		return nil, 0, false
	}
	if !s.db.IsTabled(fn, arity) || s.db.TabledMin(fn, arity) != rec.Min {
		return nil, 0, false
	}
	deps := make([]dep, 0, len(rec.Deps))
	for _, d := range rec.Deps {
		k, ok := kb.ParsePredKey(d.Pred)
		if !ok {
			return nil, 0, false
		}
		fp, stamp := s.db.Fingerprint(k.Fn, k.Arity)
		if fp != d.FP {
			return nil, 0, false
		}
		deps = append(deps, dep{k, stamp})
	}
	key, pattern := Canonicalize(nil, call)
	pred, _ := term.Indicator(pattern)
	t := &Table{
		key:     key,
		pattern: pattern,
		pred:    pred,
		min:     rec.Min,
		deps:    deps,
	}
	var bytes int64
	t.answers = make([]term.Term, 0, len(rec.Answers))
	for _, src := range rec.Answers {
		a, err := parse.OneTerm(src)
		if err != nil {
			return nil, 0, false
		}
		afn, aar, ok := term.PredOf(a)
		if !ok || afn != fn || aar != arity {
			return nil, 0, false
		}
		_, canon := Canonicalize(nil, a)
		t.answers = append(t.answers, canon)
		bytes += term.ApproxBytes(canon)
	}
	t.createdAt = time.Unix(0, rec.CreatedAt)
	t.completedAt.Store(rec.CompletedAt)
	t.nAnswers.Store(int64(len(t.answers)))
	t.bytes.Store(bytes)
	t.rounds.Store(rec.Rounds)
	t.hits.Store(rec.Hits)
	t.revalidations.Store(rec.Revalidations)
	t.complete.Store(true)
	return t, bytes, true
}
