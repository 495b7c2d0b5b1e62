// Package table implements tabled resolution (answer memoization) for the
// B-LOG engine: an answer-table subsystem keyed by call patterns, with
// producer/consumer scheduling and completion detection, so recursive
// subgoals are derived once and every later occurrence — in the same query
// or a later one — resolves against the memoized answer set instead of
// re-opening the OR-subtree.
//
// The paper's OR-tree search (section 3) re-derives a subgoal every time a
// chain reaches it and diverges on left-recursive programs; tabling is the
// canonical fix in modern logic programming systems. The scheme here is
// linear tabling with iterative re-execution: the first call to a tabled
// variant (the producer) runs its program clauses to exhaustion in rounds,
// recursive variant calls inside those rounds consuming the answers known
// so far, until a full round adds no answer anywhere in the dependency
// group; then the whole group is marked complete. Callers of a complete
// table (consumers) never touch program clauses: the table hands the
// engine its answer terms, and the engine unifies them with the goal one
// alternative at a time (answer-clause resolution, engine.Tabler). The
// table never binds anything itself.
//
// Answer subsumption extends the scheme to weighted workloads: a
// predicate declared `:- table name/arity min(N)` marks argument N as a
// cost position, and its tables keep at most one answer per projection of
// the remaining arguments — the least-cost derivation seen so far. A
// derivation dominated by the memoized answer is subsumed (dropped); a
// strictly cheaper one replaces it, and the replacement counts as a value
// change that keeps the fixpoint's dependency group open, so generator
// rounds re-run until the costs themselves stabilize. That is what lets a
// left-recursive weighted reachability (`shortest/3` over a cyclic graph)
// terminate with the true minimal cost per reachable pair, where plain
// tabling would enumerate unboundedly many dominated cost tuples.
//
// A Space is the table store shared by every query against one database.
// Variant call patterns are canonicalized over interned term.Syms, answer
// lists are deduplicated by the same canonical form — read on a
// generator's live bindings, so a duplicate is never copied — and every
// call pattern and new answer leaves its run through one term.Detacher
// pass: a depth-first run recycles its body compounds at backtrack, so a
// table that kept one would be renamed by the next call built in it. And
// concurrent consumption is safe under every strategy: complete tables are
// read lock-free behind an atomic completion flag, and production is
// serialized by a context-aware producer slot, so one table is never
// computed twice concurrently and consumers of a table being produced wait
// for completion rather than observing partial answer sets.
//
// Maintenance is incremental and needs no notification. Every production
// records, for each predicate its fixpoint resolved against program
// clauses, the predicate's kb stamp at the moment it first resolved it
// (plus the recorded stamps of every complete table it consumed). A
// complete table serves only while every recorded stamp is still current,
// so a clause assert stales exactly the tables downstream of the asserted
// predicate: the first observer of a stale table counts every table then
// stale, a stale table stops serving, and the next touch replaces it with
// a fresh object that re-derives through the normal production path —
// untouched tables keep serving throughout. A monotone table (a plain
// table that reached no \+ and read no min(N) table) keeps every answer
// across an assert, so its replacement starts from them and the rounds
// only extend it. Whole-space Invalidate remains only for genuine limit
// changes (a new depth coding A), and ReconfigureCause with unchanged
// limits is a no-op. Complete untruncated tables additionally serialize to
// a persistent snapshot (snapshot.go) that validates per-table dependency
// fingerprints at load, so a blogd restart replays its hot tables instead
// of rebuilding every fixpoint; a table whose answers the reader cannot
// read back (nested deeper than its 10 000 levels) is skipped, and
// re-derives on first touch.
package table

import (
	"context"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/weights"
)

// Config sizes a Space.
type Config struct {
	// MaxDepth bounds one generator derivation in arcs; 0 uses the
	// weights default A. Tabled recursion does not consume depth (answer
	// consumption is flat), so this only cuts runaway non-tabled chains
	// inside generators.
	MaxDepth int
	// Budget bounds the total generator expansions of one production
	// (the whole dependency group); 0 takes the table_answers limit's
	// default, and passing it ends the production with its LimitError.
	Budget uint64
}

// Space is an answer-table store over one database. It is safe for
// concurrent use by any number of queries and workers.
type Space struct {
	db *kb.DB

	// prod is the producer slot: at most one goroutine computes tables at
	// a time, acquired with the caller's context so a cancelled consumer
	// never blocks indefinitely behind a long production.
	prod chan struct{}

	mu       sync.RWMutex
	ws       weights.Store // generator weight store (guarded by mu)
	maxDepth int           // guarded by mu; see Reconfigure
	budget   uint64        // guarded by mu
	tables   map[string]*Table

	// Cumulative, monotonic counters (survive Invalidate) for /metrics.
	created     atomic.Uint64
	answers     atomic.Uint64
	hits        atomic.Uint64
	reuse       atomic.Uint64
	subsumed    atomic.Uint64
	improved    atomic.Uint64
	dirtied     atomic.Uint64
	revalidated atomic.Uint64
	extended    atomic.Uint64

	// journal, when set, receives table lifecycle events (created,
	// completed, truncated, invalidated with cause). Nil by default, so
	// a space without an attached journal pays one nil check per
	// lifecycle transition — never per answer or per hit.
	journal atomic.Pointer[obs.Journal]
}

// SetJournal attaches the structured event journal; table lifecycle
// events (creation, completion, truncation, invalidation) are emitted
// into it from then on. Safe to call concurrently with queries.
func (s *Space) SetJournal(j *obs.Journal) { s.journal.Store(j) }

// dep is one recorded dependency: a predicate and its kb stamp when the
// production first resolved it.
type dep struct {
	pred  kb.PredKey
	stamp uint64
}

// NewSpace returns an empty table space over db. The space registers
// nothing with the database: it compares stamps, so any number of spaces
// over a shared database stay correct across asserts.
func NewSpace(db *kb.DB, cfg Config) *Space {
	s := &Space{db: db, prod: make(chan struct{}, 1), tables: make(map[string]*Table)}
	s.Reconfigure(cfg)
	return s
}

// Close does nothing: a space holds no registration to drop. It is kept
// for callers that close their spaces when done.
func (s *Space) Close() {}

// Reconfigure applies new limits — in particular a new depth coding A
// after a weight-table load. Changed limits drop every memoized table,
// since they were produced under the old bounds; unchanged limits (for
// example reloading an identical weight file) are a no-op, so the hot
// cache survives. In-flight productions finish against their orphaned
// tables (their answers stay sound) with the limits they started under.
func (s *Space) Reconfigure(cfg Config) { s.ReconfigureCause(cfg, "reconfigure") }

// ReconfigureCause is Reconfigure with an explicit invalidation cause for
// the journal event ("load_weights", "reconfigure", ...).
func (s *Space) ReconfigureCause(cfg Config, cause string) {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = weights.DefaultConfig().A
	}
	cfg.Budget = engine.TableAnswers.Or(cfg.Budget)
	s.mu.Lock()
	// Same limits as the tables were produced under: nothing they depend
	// on changed, so wiping them would be a pure re-derivation stampede.
	same := s.ws != nil && cfg.MaxDepth == s.maxDepth && cfg.Budget == s.budget
	if !same {
		s.ws = weights.NewUniform(weights.Config{N: weights.DefaultConfig().N, A: cfg.MaxDepth})
		s.maxDepth = cfg.MaxDepth
		s.budget = cfg.Budget
	}
	s.mu.Unlock()
	if !same {
		s.Invalidate(cause)
	}
}

// limits snapshots the generator limits for one production run.
func (s *Space) limits() (ws weights.Store, maxDepth int, budget uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ws, s.maxDepth, s.budget
}

// Table is the memoized answer set of one call-pattern variant. Answers
// are appended by the (single) producer and become immutable once the
// completion flag is set; consumers read them only after observing
// complete, so the slice is never read and written concurrently.
type Table struct {
	key     string
	pattern term.Term // canonical call with fresh variables
	pred    string    // predicate indicator, for listings

	// min is the 1-based cost-argument position of an answer-subsumption
	// (`min(N)`) table, 0 for plain variant tabling. A min table keeps at
	// most one answer per projection of the remaining arguments — the
	// least-cost derivation seen so far — so answers may be *replaced* by
	// the producer before completion; after the completion flag is set the
	// slice is immutable like any other table's.
	min int

	complete  atomic.Bool
	answers   []term.Term
	answerSet map[string]struct{} // producer-only dedup index (plain tables)
	// projIdx and costs are the subsumption index of a min table
	// (producer-only, like answerSet): projIdx maps the canonical form of
	// an answer's non-cost arguments to its slot in answers, and costs
	// holds the current cost at each slot.
	projIdx map[string]int
	costs   []int64
	// truncated records that a generator derivation hit the depth bound,
	// so answers past it may be missing; depth is the generator bound the
	// table was produced under. An untruncated table is depth-independent
	// (no derivation was cut), so it serves queries of any depth; a
	// truncated one serves only queries whose depth bound it covers and
	// is re-produced when a deeper query arrives. Both are written by the
	// producer before complete is published and read only after.
	truncated bool
	depth     int
	// independent marks a pending (not yet leader-completed) table whose
	// last production never reached an in-progress production below its
	// own frame: its answer set is final, which is what negation inside a
	// production may rely on. Producer-goroutine only; see eval.require.
	independent bool

	// deps are the recorded dependency stamps, sorted by predicate: every
	// predicate the fixpoint resolved against program clauses, at its
	// stamp when first resolved, plus the recorded stamps of every
	// complete table it consumed (transitive by construction). Written
	// under the space mutex when the production completes — or aborts,
	// so a later production resumes the partial table only while they
	// hold — and immutable once the table is complete.
	deps []dep
	// freshAt is the last generation at which every recorded stamp was
	// seen current; a lookup at that generation skips the comparison.
	freshAt atomic.Uint64
	// staleSeen is set when an observer finds a recorded stamp moved (see
	// Space.sweep). A stale table stops serving — lookup rejects it — and
	// is replaced by a fresh object on next touch.
	staleSeen atomic.Bool
	// revalidating marks a fresh table that replaced a stale one, so its
	// completion journals as table_revalidated. Written at creation under
	// the space mutex, read by the single producer.
	revalidating bool
	// monotone marks a complete plain table an assert can only add
	// answers to (see eval.complete); extendedFrom is the number of answers a
	// replacement was seeded with (see seed), 0 when it started empty.
	monotone     bool
	extendedFrom int64
	// revalidations counts how many times this logical table (the call
	// pattern, across object replacements) has been re-derived after
	// going stale. Carried over on replacement.
	revalidations atomic.Int64

	// Resource accounting. Written by the producer (nAnswers/bytes/rounds)
	// and by consumers (hits/lastHit); read at any time by the inventory,
	// so everything is atomic even where a single writer exists.
	createdAt   time.Time    // set under the space mutex at creation
	completedAt atomic.Int64 // unixnano of the completion publish, 0 while producing
	nAnswers    atomic.Int64 // memoized answers so far (replacements do not count)
	bytes       atomic.Int64 // approximate retained bytes of the answer list
	rounds      atomic.Int64 // fixpoint rounds across this table's productions
	hits        atomic.Uint64
	lastHit     atomic.Int64 // unixnano of the last complete-table serve
}

// Table states reported by Info.State and counted by Accounting.
const (
	StateProducing = "producing"
	StateComplete  = "complete"
	StateTruncated = "truncated"
	StateDirty     = "dirty"
)

// Info describes one table for listings (REPL :tables, server /stats and
// /tables).
type Info struct {
	// Pred is the predicate indicator, e.g. "path/2".
	Pred string
	// Call renders the canonical call pattern, e.g. "path(v0,_T1)".
	Call string
	// Answers is the number of distinct memoized answers so far (partial
	// while the table is still producing).
	Answers int
	// Min is the 1-based cost-argument position of an answer-subsumption
	// (`min(N)`) table, 0 for plain variant tabling.
	Min int
	// Complete reports whether the fixpoint finished (an incomplete
	// table was interrupted and will be recomputed on next use).
	Complete bool
	// Truncated reports that a generator derivation hit the depth bound
	// while this table was produced: the memoized set is the depth-capped
	// one, the tabled analogue of the untabled engine's DepthCutoffs.
	Truncated bool
	// State is the coarse lifecycle state: StateProducing (not yet
	// complete), StateComplete, or StateTruncated (complete but
	// depth-capped).
	State string
	// Bytes is the approximate retained heap bytes of the memoized
	// answers (term.ApproxBytes summed over the answer list).
	Bytes int64
	// Hits counts calls served from this table once complete.
	Hits uint64
	// Rounds is the fixpoint round count across this table's productions.
	Rounds int
	// Dirty reports that a dependency of this complete table was asserted
	// into after its production read it; the table no longer serves and
	// will re-derive on next touch.
	Dirty bool
	// Revalidations counts re-derivations of this call pattern after it
	// went stale (carried across the object replacement each one does).
	Revalidations int
	// Deps lists the predicate indicators this table's fixpoint was
	// derived from (set at completion; empty while producing).
	Deps []string
	// CreatedAt is when the table was materialized; CompletedAt when its
	// group reached fixpoint (zero while producing); LastHit when a
	// consumer was last served from it (zero if never).
	CreatedAt   time.Time
	CompletedAt time.Time
	LastHit     time.Time
}

// info snapshots one table's listing row.
func (s *Space) info(t *Table) Info {
	info := Info{
		Pred:      t.pred,
		Call:      t.pattern.String(),
		Min:       t.min,
		Answers:   int(t.nAnswers.Load()),
		Bytes:     t.bytes.Load(),
		Hits:      t.hits.Load(),
		Rounds:    int(t.rounds.Load()),
		CreatedAt: t.createdAt,
		State:     StateProducing,
	}
	info.Revalidations = int(t.revalidations.Load())
	if t.complete.Load() {
		info.Complete = true
		info.Truncated = t.truncated
		info.State = StateComplete
		if t.truncated {
			info.State = StateTruncated
		}
		if s.stale(t) {
			info.Dirty = true
			info.State = StateDirty
		}
		if len(t.deps) > 0 {
			info.Deps = make([]string, len(t.deps))
			for i, d := range t.deps {
				info.Deps[i] = d.pred.String()
			}
		}
	}
	if ns := t.completedAt.Load(); ns != 0 {
		info.CompletedAt = time.Unix(0, ns)
	}
	if ns := t.lastHit.Load(); ns != 0 {
		info.LastHit = time.Unix(0, ns)
	}
	return info
}

// Invalidate drops every table — the blunt instrument, kept for genuine
// whole-space causes (operator reset, limit changes). In-flight
// productions finish against the orphaned tables — their answers remain
// sound — and the next tabled call rebuilds from the current program
// state. The cause is carried on the journal event. Clause asserts do NOT
// route here: they stale only the downstream tables, through their stamps.
func (s *Space) Invalidate(cause string) {
	s.mu.Lock()
	dropped := len(s.tables)
	var bytes int64
	if dropped > 0 {
		for _, t := range s.tables {
			bytes += t.bytes.Load()
		}
		s.tables = make(map[string]*Table)
	}
	s.mu.Unlock()
	if dropped > 0 {
		s.journal.Load().Emit(obs.Event{
			Kind:  obs.KindTableInvalidated,
			Cause: cause,
			Count: int64(dropped),
			Bytes: bytes,
		})
	}
}

// stale reports whether a complete table's recorded stamps moved: some
// dependency was asserted into after the production read it. Finding one
// stale table observes the whole space (see sweep).
func (s *Space) stale(t *Table) bool {
	if t.staleSeen.Load() {
		return true
	}
	// The generation is read before the stamps, so a table seen fresh at
	// gen was fresh for every assert up to gen.
	gen := s.db.Generation()
	if t.freshAt.Load() == gen {
		return false
	}
	if _, moved := s.moved(t.deps); moved {
		s.sweep()
		return true
	}
	t.freshAt.Store(gen)
	return false
}

// moved returns the first recorded dependency whose stamp is no longer
// the predicate's current one.
func (s *Space) moved(deps []dep) (kb.PredKey, bool) {
	for _, d := range deps {
		if s.db.Stamp(d.pred.Fn, d.pred.Arity) != d.stamp {
			return d.pred, true
		}
	}
	return kb.PredKey{}, false
}

// sweep marks every complete table whose recorded stamps moved, counts
// each once (Totals.Dirtied), and journals one table_invalidated per
// predicate whose stamp moved, so an assert costs the journal one event
// rather than one per downstream table. A marked table stops serving and
// is replaced by a fresh object on next touch.
func (s *Space) sweep() {
	found := make(map[kb.PredKey][2]int64) // tables and bytes per moved predicate
	for _, t := range s.snapshot() {
		if !t.complete.Load() || t.staleSeen.Load() {
			continue
		}
		pred, moved := s.moved(t.deps)
		if moved && t.staleSeen.CompareAndSwap(false, true) {
			f := found[pred]
			found[pred] = [2]int64{f[0] + 1, f[1] + t.bytes.Load()}
		}
	}
	for pred, f := range found {
		s.dirtied.Add(uint64(f[0]))
		s.journal.Load().Emit(obs.Event{
			Kind:   obs.KindTableInvalidated,
			Cause:  "assert",
			Pred:   pred.String(),
			Count:  f[0],
			Bytes:  f[1],
			Detail: "stamp moved; re-derives on next touch",
		})
	}
}

// Len returns the number of live tables.
func (s *Space) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// snapshot copies the live table pointers out from under the lock.
func (s *Space) snapshot() []*Table {
	s.mu.RLock()
	list := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		list = append(list, t)
	}
	s.mu.RUnlock()
	return list
}

// infos lists the live tables, unsorted.
func (s *Space) infos() []Info {
	list := s.snapshot()
	out := make([]Info, len(list))
	for i, t := range list {
		out[i] = s.info(t)
	}
	return out
}

// Tables lists the live tables sorted by call pattern.
func (s *Space) Tables() []Info {
	out := s.infos()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Call < out[j].Call
	})
	return out
}

// Inventory lists the live tables ranked by retained bytes (largest
// first, ties by pred then call) — the /tables endpoint's order, so the
// biggest memory consumers lead.
func (s *Space) Inventory() []Info {
	out := s.infos()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Call < out[j].Call
	})
	return out
}

// Accounting aggregates the live gauges of a Space: table counts by
// lifecycle state and the total approximate bytes and answers retained.
// Unlike Totals these are point-in-time values that drop to zero on
// Invalidate.
type Accounting struct {
	Producing     int
	Complete      int
	Truncated     int
	Dirty         int
	RetainedBytes int64
	Answers       int64
}

// Accounting returns the space's live resource gauges.
func (s *Space) Accounting() Accounting {
	var a Accounting
	for _, t := range s.snapshot() {
		switch {
		case !t.complete.Load():
			a.Producing++
		case s.stale(t):
			a.Dirty++
		case t.truncated:
			a.Truncated++
		default:
			a.Complete++
		}
		a.RetainedBytes += t.bytes.Load()
		a.Answers += t.nAnswers.Load()
	}
	return a
}

// Totals are the cumulative (monotonic, surviving Invalidate) counters of
// a Space: tables created, distinct answers memoized, complete-table hits,
// answers replayed from complete tables (each a re-derivation avoided),
// and the answer-subsumption pair — derived answers dominated by a
// cheaper memoized one (Subsumed) and memoized answers replaced by a
// strictly cheaper derivation (Improved).
type Totals struct {
	Created              uint64
	Answers              uint64
	Hits                 uint64
	RederivationsAvoided uint64
	Subsumed             uint64
	Improved             uint64
	// Dirtied counts complete tables found stale, each once, when a
	// lookup, listing, accounting or snapshot first observes the space
	// after the assert; Revalidated counts stale tables that have since
	// re-derived to completion, and Extended those of them that
	// re-derived from their old answers rather than from empty.
	Dirtied     uint64
	Revalidated uint64
	Extended    uint64
}

// Totals returns the space's cumulative counters.
func (s *Space) Totals() Totals {
	return Totals{
		Created:              s.created.Load(),
		Answers:              s.answers.Load(),
		Hits:                 s.hits.Load(),
		RederivationsAvoided: s.reuse.Load(),
		Subsumed:             s.subsumed.Load(),
		Improved:             s.improved.Load(),
		Dirtied:              s.dirtied.Load(),
		Revalidated:          s.revalidated.Load(),
		Extended:             s.extended.Load(),
	}
}

// lookup returns the table for key if it is complete, fresh, and serves
// queries with the given depth bound: untruncated tables serve any depth,
// while a depth-truncated table only covers bounds up to the one it was
// produced under.
func (s *Space) lookup(key []byte, depth int) (*Table, bool) {
	s.mu.RLock()
	t := s.tables[string(key)]
	s.mu.RUnlock()
	if t != nil && t.complete.Load() && !s.stale(t) && (!t.truncated || t.depth >= depth) {
		return t, true
	}
	return nil, false
}

// getOrCreate returns the table for key, goal's variant key under env,
// materializing it if needed; only then are the key string and the
// canonical pattern built. A complete table that lookup rejected — stale
// after an assert, or truncated under a shallower bound than the
// caller's — is replaced by a fresh object under the same key; the old
// object stays valid for consumers already holding it. A stale
// replacement carries the logical table's identity (creation time, hit
// counters, rounds, revalidation count) so the inventory shows one
// long-lived table being maintained, not a new one per assert. An
// incomplete table, left by an aborted production, is resumed only while
// the stamps that production read still hold.
func (s *Space) getOrCreate(key []byte, env *term.Env, goal term.Term, h *Handle, depth int, reqID string) *Table {
	s.mu.Lock()
	t := s.tables[string(key)]
	var replaced *Table
	if t != nil {
		if !t.complete.Load() {
			if _, moved := s.moved(t.deps); moved {
				t = nil
			}
		} else if t.staleSeen.Load() {
			replaced, t = t, nil
		} else if t.truncated && t.depth < depth {
			t = nil
		}
	}
	created := false
	if t == nil {
		key, pattern := Canonicalize(env, goal)
		pred, _ := term.Indicator(pattern)
		t = &Table{key: key, pattern: pattern, pred: pred, createdAt: time.Now()}
		if fn, arity, ok := term.PredOf(pattern); ok {
			t.min = s.db.TabledMin(fn, arity)
		}
		if t.min > 0 {
			t.projIdx = make(map[string]int)
		} else {
			t.answerSet = make(map[string]struct{})
		}
		if replaced != nil {
			t.createdAt = replaced.createdAt
			t.hits.Store(replaced.hits.Load())
			t.lastHit.Store(replaced.lastHit.Load())
			t.rounds.Store(replaced.rounds.Load())
			t.revalidations.Store(replaced.revalidations.Load() + 1)
			t.revalidating = true
			if replaced.monotone && !replaced.truncated && len(replaced.answers) > 0 {
				s.seed(t, replaced)
			}
		}
		s.tables[t.key] = t
		s.created.Add(1)
		h.created.Add(1)
		created = replaced == nil
	}
	s.mu.Unlock()
	if created {
		s.journal.Load().Emit(obs.Event{
			Kind:      obs.KindTableCreated,
			RequestID: reqID,
			Pred:      t.pred,
			Call:      t.pattern.String(),
		})
	}
	return t
}

// seed starts t from the answers, dedup index and dependencies (at their
// current stamps) of old, the monotone table it replaces. An assert only
// appends clauses, so every old answer is still derivable and the rounds
// extend the seed to the new fixpoint. Runs under the space mutex; old is
// complete and immutable.
func (s *Space) seed(t, old *Table) {
	t.answers, t.answerSet = slices.Clone(old.answers), maps.Clone(old.answerSet)
	t.nAnswers.Store(old.nAnswers.Load())
	t.bytes.Store(old.bytes.Load())
	t.deps = make([]dep, len(old.deps))
	for i, d := range old.deps {
		t.deps[i] = dep{d.pred, s.db.Stamp(d.pred.Fn, d.pred.Arity)}
	}
	t.extendedFrom = int64(len(t.answers))
}

// acquireProducer claims the producer slot, or fails with ctx's error.
func (s *Space) acquireProducer(ctx context.Context) error {
	select {
	case s.prod <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.prod <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Space) releaseProducer() { <-s.prod }

// setDeps records an aborted production's dependency stamps on the
// tables of its group, so a later production resumes them only while
// those stamps hold.
func (s *Space) setDeps(group map[string]*Table, deps []dep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range group {
		t.deps = deps
	}
}

// markComplete publishes a produced group with its dependency stamps:
// answers appended before the flag store are visible to any consumer that
// loads the flag. A group an assert raced completes already stale: it
// serves the production's caller, then leaves the space, counted as
// dirtied, and the next touch derives its tables afresh.
func (s *Space) markComplete(group map[string]*Table, deps []dep) (stale bool) {
	now := time.Now().UnixNano()
	_, stale = s.moved(deps)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range group {
		t.deps = deps
		t.completedAt.Store(now)
		t.complete.Store(true)
		if stale {
			t.staleSeen.Store(true)
			s.dirtied.Add(1)
			if s.tables[t.key] == t {
				delete(s.tables, t.key)
			}
		}
	}
	return stale
}

// Stats are the per-query tabled-resolution counters of one Handle.
type Stats struct {
	// TablesCreated counts tables this query materialized.
	TablesCreated uint64
	// TableAnswers counts distinct answers this query derived into tables.
	TableAnswers uint64
	// TableHits counts tabled calls served from an already-complete table.
	TableHits uint64
	// RederivationsAvoided counts answers replayed from complete tables —
	// each one a subgoal derivation the untabled engine would have redone.
	RederivationsAvoided uint64
	// TablesTruncated counts consumptions of depth-truncated tables: the
	// served answer set was cut by the depth bound (the tabled analogue
	// of the untabled engine's DepthCutoffs counter).
	TablesTruncated uint64
	// AnswersSubsumed counts derivations into min(N) tables dominated by
	// an already-memoized answer of equal or lower cost — dominated tuples
	// a plain table would have memoized and replayed.
	AnswersSubsumed uint64
	// AnswersImproved counts memoized min(N) answers replaced by a
	// strictly cheaper derivation. An improvement is a value change: it
	// keeps the fixpoint's dependency group open like a new answer does.
	AnswersImproved uint64
}

// Handle is one query run's view of a Space: it implements engine.Tabler
// and keeps per-request counters. A Handle is shared by all workers of a
// parallel run, so its counters are atomic.
type Handle struct {
	space *Space
	// maxDepth is the query's depth bound (SetMaxDepth); productions run
	// at the larger of it and the space default, so raising a query's
	// MaxDepth raises the generator bound too.
	maxDepth int
	// prof, when non-nil, profiles generator runs and counts table
	// hits/misses per predicate (SetProfiler).
	prof *obs.Profiler
	// trace, when non-nil, receives fixpoint spans under the query's open
	// "search" phase (SetTrace).
	trace *obs.Trace

	created   atomic.Uint64
	answers   atomic.Uint64
	hits      atomic.Uint64
	reuse     atomic.Uint64
	truncated atomic.Uint64
	subsumed  atomic.Uint64
	improved  atomic.Uint64
}

// NewHandle returns a per-query handle on the space.
func (s *Space) NewHandle() *Handle { return &Handle{space: s} }

// SetMaxDepth passes the query's depth bound to table production. It must
// be called before the handle's first Answers call.
func (h *Handle) SetMaxDepth(d int) { h.maxDepth = d }

// SetProfiler attaches a per-predicate profiler to the handle's table
// resolution: generator runs charge into it, and hits/misses are counted
// per predicate. It must be called before the handle's first Answers call.
func (h *Handle) SetProfiler(p *obs.Profiler) { h.prof = p }

// SetTrace attaches a query trace: each leader fixpoint records a span
// (with per-round child spans) under the query's open "search" phase. It
// must be called before the handle's first Answers call.
func (h *Handle) SetTrace(tr *obs.Trace) { h.trace = tr }

// Stats returns the counters this handle accumulated.
func (h *Handle) Stats() Stats {
	return Stats{
		TablesCreated:        h.created.Load(),
		TableAnswers:         h.answers.Load(),
		TableHits:            h.hits.Load(),
		RederivationsAvoided: h.reuse.Load(),
		TablesTruncated:      h.truncated.Load(),
		AnswersSubsumed:      h.subsumed.Load(),
		AnswersImproved:      h.improved.Load(),
	}
}

// noteTruncated counts a consumption of a depth-truncated table.
func (h *Handle) noteTruncated(t *Table) {
	if t.truncated {
		h.truncated.Add(1)
	}
}

// IsTabled implements engine.Tabler.
func (h *Handle) IsTabled(fn term.Sym, arity int) bool { return h.space.db.IsTabled(fn, arity) }

// ForNegation implements engine.NegationTabler. The handle itself is safe
// under negation: it serves only complete tables, producing first when
// needed, so a \+ sub-search never observes a growing answer set.
func (h *Handle) ForNegation() engine.Tabler { return h }

// Answers implements engine.Tabler for top-level (consumer) calls: serve
// a complete table's answers, or claim the producer slot and compute the
// table's dependency group to completion first. Either way the table is
// complete, so its own immutable answer slice is returned.
func (h *Handle) Answers(ctx context.Context, env *term.Env, goal term.Term) ([]term.Term, error) {
	var buf keyBuf
	key, _ := appendVariantKey(buf.b[:0], buf.v[:0], env, goal)
	if t, ok := h.space.lookup(key, h.maxDepth); ok {
		return h.serveHit(t), nil
	}
	if err := h.space.acquireProducer(ctx); err != nil {
		return nil, err
	}
	defer h.space.releaseProducer()
	// Another producer may have completed the table while we waited.
	if t, ok := h.space.lookup(key, h.maxDepth); ok {
		return h.serveHit(t), nil
	}
	t := h.space.getOrCreate(key, env, goal, h, h.maxDepth, obs.RequestID(ctx))
	if fn, arity, ok := term.PredOf(t.pattern); ok {
		h.prof.TableMiss(fn, arity)
	}
	ev := newEval(h, ctx)
	if err := ev.require(t); err != nil {
		return nil, err
	}
	h.noteTruncated(t)
	return t.answers, nil
}

// serveHit counts a complete table's replay and returns its answers. Each
// answer is an instance of the caller's variant pattern, so every one of
// them unifies with the goal: each is a re-derivation avoided.
func (h *Handle) serveHit(t *Table) []term.Term {
	h.hits.Add(1)
	h.space.hits.Add(1)
	t.hits.Add(1)
	t.lastHit.Store(time.Now().UnixNano())
	if fn, arity, ok := term.PredOf(t.pattern); ok {
		h.prof.TableHit(fn, arity)
	}
	h.noteTruncated(t)
	h.reuse.Add(uint64(len(t.answers)))
	h.space.reuse.Add(uint64(len(t.answers)))
	return t.answers
}

// Canonicalize resolves goal under env and rewrites it to its variant
// canonical form: distinct free variables become numbered placeholders in
// first-occurrence order (sharing preserved), and the returned key is
// appendVariantKey's, so two goals are variants of each other exactly
// when their keys are equal. The returned pattern is detached from the
// run (canonical), reusable as the generator's root goal and as the
// stored form of an answer (Canonicalize with a nil env).
func Canonicalize(env *term.Env, goal term.Term) (string, term.Term) {
	var buf keyBuf
	key, vars := appendVariantKey(buf.b[:0], buf.v[:0], env, goal)
	return string(key), canonical(env, vars, goal)
}

// canonical copies t, read through env, out of the run in one Detacher
// pass, vars — t's free variables in first-occurrence order, as
// appendVariantKey collected them — becoming the placeholders _T0…_Tn.
func canonical(env *term.Env, vars []*term.Var, t term.Term) term.Term {
	d := term.Detacher{Env: env}
	for i, v := range vars {
		d.Own(v, term.NewVar("_T"+strconv.Itoa(i)))
	}
	return d.Detach(t)
}

// appendVariantKey appends t's variant key to dst: the structure of t,
// read through env, written over interned Syms, with each free
// variable numbered by its first occurrence (vars collects them in that
// order). Two terms are variants exactly when their keys are equal, so
// the key is compared whole and needs no hash. Both slices are returned,
// possibly grown: encoding into stack buffers and probing a map with
// m[string(key)] allocates nothing.
func appendVariantKey(dst []byte, vars []*term.Var, env *term.Env, t term.Term) ([]byte, []*term.Var) {
	switch t := env.Resolve(t).(type) {
	case term.Atom:
		dst = strconv.AppendInt(append(dst, 'a'), int64(t.Sym()), 10)
	case term.Int:
		dst = strconv.AppendInt(append(dst, 'i'), int64(t), 10)
	case *term.Var:
		i := slices.Index(vars, t)
		if i < 0 {
			i, vars = len(vars), append(vars, t)
		}
		dst = strconv.AppendInt(append(dst, '_'), int64(i), 10)
	case *term.Compound:
		dst = appendFunctor(dst, t)
		for _, a := range t.Args {
			dst, vars = appendVariantKey(dst, vars, env, a)
			dst = append(dst, ',')
		}
		dst = append(dst, ')')
	}
	return dst, vars
}

// appendFunctor opens a compound's key: its functor, arity and '('.
func appendFunctor(dst []byte, c *term.Compound) []byte {
	dst = strconv.AppendInt(append(dst, 'c'), int64(c.Functor), 10)
	dst = strconv.AppendInt(append(dst, '/'), int64(len(c.Args)), 10)
	return append(dst, '(')
}

// keyBuf is stack room for one call's variant key: a lookup encoded into
// it allocates nothing unless the key outgrows it.
type keyBuf struct {
	b [128]byte
	v [8]*term.Var
}

var (
	_ engine.Tabler         = (*Handle)(nil)
	_ engine.NegationTabler = (*Handle)(nil)
)
