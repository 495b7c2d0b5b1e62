package obs

// journal.go — the structured event journal: a lock-free bounded ring of
// typed engine events (table lifecycle, VM recompiles, session churn,
// admission rejects, kills, slow queries), each stamped with a monotonic
// sequence number and, when known, the request ID of the query that
// caused it. Like the profiler, everything is nil-receiver-safe: a
// disabled journal costs one nil check per emission site.
//
// The ring is multi-producer, multi-consumer and never blocks: Emit
// claims a sequence number with one atomic add and publishes an immutable
// heap copy of the event into its slot with one atomic pointer store.
// Readers snapshot slots through the same atomic pointers, so an event is
// either observed whole or not at all — a slot mid-overwrite simply holds
// the previous (complete) event, which the sequence check skips. Old
// events are overwritten once the ring laps; Overwritten reports how many
// are gone.

import (
	"sync/atomic"
	"time"
)

// Event kinds recorded in a Journal. Plain strings, so wire encodings and
// filters need no mapping.
const (
	KindTableCreated     = "table_created"
	KindTableCompleted   = "table_completed"
	KindTableTruncated   = "table_truncated"
	KindTableInvalidated = "table_invalidated"
	KindTableRevalidated = "table_revalidated"
	KindSnapshotLoaded   = "snapshot_loaded"
	KindSnapshotSaved    = "snapshot_saved"
	KindVMRecompile      = "vm_recompile"
	KindSessionCreated   = "session_created"
	KindSessionMerged    = "session_merged"
	KindSessionEvicted   = "session_evicted"
	KindAdmissionReject  = "admission_reject"
	KindQueryKilled      = "query_killed"
	KindQueryOverLimit   = "query_over_limit"
	KindSlowQuery        = "slow_query"
)

// Event is one typed engine event. Unused fields stay zero and are
// omitted on the wire; which fields a kind fills is documented on the
// emission site.
type Event struct {
	// Seq is the journal-wide monotonic sequence number (1-based),
	// assigned by Emit.
	Seq uint64 `json:"seq"`
	// Time is the emission time, stamped by Emit unless already set.
	Time time.Time `json:"time"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// RequestID is the q-%06d ID of the query that caused the event, when
	// one was on the context.
	RequestID string `json:"request_id,omitempty"`
	// Pred and Call identify a table's predicate and canonical call
	// pattern on table lifecycle events. An assert's table_invalidated
	// names the predicate whose stamp moved; a vm_recompile names the
	// predicate it compiled.
	Pred string `json:"pred,omitempty"`
	Call string `json:"call,omitempty"`
	// Cause names what triggered an invalidation (assert, load_weights,
	// reconfigure) or rejection.
	Cause string `json:"cause,omitempty"`
	// Count is the kind's cardinality: answers memoized on completion,
	// tables dropped on invalidation, clauses compiled on a recompile
	// (only those new since the predicate's last compile).
	Count int64 `json:"count,omitempty"`
	// Bytes is the approximate retained answer bytes involved.
	Bytes int64 `json:"bytes,omitempty"`
	// Rounds is the fixpoint round count of a completed production.
	Rounds int `json:"rounds,omitempty"`
	// Generation is the predicate stamp a VM recompile compiled from.
	Generation uint64 `json:"generation,omitempty"`
	// Millis carries a duration (slow-query wall time).
	Millis float64 `json:"ms,omitempty"`
	// Detail is free-form context (goal text, session ID; on a recompile,
	// "N reused": the clauses whose earlier compiled form was kept; on a
	// revalidation, "extended from N answers" when the table re-derived
	// from its old answers).
	Detail string `json:"detail,omitempty"`
}

// Journal is the bounded event ring. Safe for any number of concurrent
// emitters and readers; a nil *Journal ignores emissions and reads empty.
type Journal struct {
	mask  uint64
	seq   atomic.Uint64
	slots []atomic.Pointer[Event]
}

// journalMaxCap bounds the ring so a misconfigured capacity cannot pin
// gigabytes of retained events.
const journalMaxCap = 1 << 20

// NewJournal returns a journal retaining at least capacity events
// (rounded up to a power of two, minimum 64).
func NewJournal(capacity int) *Journal {
	n := 64
	for n < capacity && n < journalMaxCap {
		n <<= 1
	}
	return &Journal{mask: uint64(n - 1), slots: make([]atomic.Pointer[Event], n)}
}

// Emit records one event, assigning its sequence number and timestamp,
// and returns the sequence number (0 on a nil journal). The event is
// copied; the stored copy is never mutated again, which is what makes
// concurrent reads tear-free.
func (j *Journal) Emit(e Event) uint64 {
	if j == nil {
		return 0
	}
	e.Seq = j.seq.Add(1)
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	ev := e
	// A writer a lap behind must not clobber the newer event in its slot.
	for slot := &j.slots[(e.Seq-1)&j.mask]; ; {
		if cur := slot.Load(); cur != nil && cur.Seq > e.Seq || slot.CompareAndSwap(cur, &ev) {
			return e.Seq
		}
	}
}

// LastSeq returns the newest assigned sequence number (0 when empty).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq.Load()
}

// Cap returns the ring capacity in events.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.slots)
}

// Overwritten returns how many events have been lost to ring lap-around
// — emitted, then overwritten before any reader was obliged to see them.
func (j *Journal) Overwritten() uint64 {
	if j == nil {
		return 0
	}
	if s, c := j.seq.Load(), uint64(len(j.slots)); s > c {
		return s - c
	}
	return 0
}

// Events returns the retained events with sequence numbers strictly
// greater than after, oldest first. Events overwritten since after are
// simply absent; a slot still being published (its writer claimed the
// sequence number but has not stored yet) is skipped the same way, so
// the result only ever contains complete events in sequence order.
func (j *Journal) Events(after uint64) []Event {
	if j == nil {
		return nil
	}
	last := j.seq.Load()
	if last <= after {
		return nil
	}
	lo := after + 1
	if c := uint64(len(j.slots)); last > c && lo < last-c+1 {
		lo = last - c + 1
	}
	out := make([]Event, 0, last-lo+1)
	for s := lo; s <= last; s++ {
		ev := j.slots[(s-1)&j.mask].Load()
		if ev != nil && ev.Seq == s {
			out = append(out, *ev)
		}
	}
	return out
}
