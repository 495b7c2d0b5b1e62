// Package server exposes a loaded blog.Program as a concurrent query
// service: HTTP/JSON endpoints for one-shot and streaming (NDJSON)
// queries, first-class learning sessions, and operational endpoints
// (/healthz, /metrics). One shared Program serves every request; a
// bounded worker pool with a bounded admission queue keeps overload
// behavior flat (fast 429s) and per-request deadlines are wired to
// context cancellation, so an abandoned client releases its worker slot
// at the next expansion step.
package server

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"blog"
	"blog/internal/obs"
	"blog/internal/term"
)

// QueryRequest is the JSON body of POST /query, POST /query/stream and
// POST /sessions/{id}/query. Zero fields take the server's defaults.
type QueryRequest struct {
	// Goal is the query text, e.g. "gf(sam, G)".
	Goal string `json:"goal"`
	// Strategy is dfs, bfs, best (or best-first) or parallel; empty means
	// the server default (best-first).
	Strategy string `json:"strategy,omitempty"`

	// MaxSolutions caps answers; 0 means the server's solution cap.
	MaxSolutions int `json:"max_solutions,omitempty"`
	// MaxExpansions bounds search work; 0 uses the engine default.
	MaxExpansions uint64 `json:"max_expansions,omitempty"`
	// MaxDepth bounds chain length in arcs; 0 uses the program's A.
	MaxDepth int `json:"max_depth,omitempty"`
	// TimeoutMs bounds wall time; 0 uses the server default and values
	// above the server maximum are clamped.
	TimeoutMs int `json:"timeout_ms,omitempty"`

	// Learn applies the section-5 weight rules (to the session store on
	// the session endpoints, else the global table).
	Learn bool `json:"learn,omitempty"`
	// Prune enables branch-and-bound pruning; PruneSlack widens it.
	Prune      bool    `json:"prune,omitempty"`
	PruneSlack float64 `json:"prune_slack,omitempty"`
	// OccursCheck enables sound unification (honored by every strategy).
	OccursCheck bool `json:"occurs_check,omitempty"`
	// AndParallel evaluates independent goal groups concurrently
	// (sequential strategies only).
	AndParallel bool `json:"and_parallel,omitempty"`
	// Workers sets the OR-parallel worker count (parallel strategy only).
	Workers int `json:"workers,omitempty"`
	// Tabled resolves predicates declared `:- table name/arity` in the
	// loaded program through the shared answer-table space (memoized,
	// complete answer sets; terminates left-recursive definitions).
	// Predicates declared with the `min(N)` mode additionally apply answer
	// subsumption: their tables keep only the least-cost answer per
	// binding of the non-cost arguments (weighted shortest-path queries
	// terminate with the true minimum). Programs without table
	// declarations run unchanged.
	Tabled bool `json:"tabled,omitempty"`
	// Trace returns the query's span tree (parse, compile, search, table
	// fixpoints) in the response's trace field — one-shot responses and
	// the terminal line of streams.
	Trace bool `json:"trace,omitempty"`
}

// options translates the request into blog query options.
func (q *QueryRequest) options(maxSolutions int) []blog.Option {
	opts := []blog.Option{blog.MaxSolutions(maxSolutions)}
	if q.MaxExpansions > 0 {
		opts = append(opts, blog.MaxExpansions(q.MaxExpansions))
	}
	if q.MaxDepth > 0 {
		opts = append(opts, blog.MaxDepth(q.MaxDepth))
	}
	if q.Learn {
		opts = append(opts, blog.Learn())
	}
	if q.Prune {
		opts = append(opts, blog.Prune())
	}
	if q.PruneSlack > 0 {
		opts = append(opts, blog.PruneSlack(q.PruneSlack))
	}
	if q.OccursCheck {
		opts = append(opts, blog.OccursCheck())
	}
	if q.AndParallel {
		opts = append(opts, blog.AndParallel())
	}
	if q.Workers > 0 {
		opts = append(opts, blog.Workers(q.Workers))
	}
	if q.Tabled {
		opts = append(opts, blog.Tabled())
	}
	return opts
}

// Solution is one answer on the wire.
type Solution struct {
	// Bindings maps query variable names to rendered terms.
	Bindings map[string]string `json:"bindings,omitempty"`
	// Text is the "X = v, Y = w" rendering ("true" for ground queries).
	Text  string  `json:"text"`
	Bound float64 `json:"bound"`
	Depth int     `json:"depth"`
}

// appendSolution appends the wire Solution of one answer to dst. sorted
// lists the indexes of a.Names in byte order of the names, duplicates
// dropped (bindingOrder); one order serves every answer of a query. The
// bytes are exactly what encoding/json, with HTML escaping off as every
// writer here sets it, writes for the Solution the answer converts to:
// binding keys in byte order, encoding/json's string escapes and its
// float64 text. The answer is rendered once, by term.Append, straight
// into dst.
func appendSolution(dst []byte, a blog.Answer, sorted []int) []byte {
	dst = append(dst, '{')
	if len(sorted) > 0 {
		dst = append(dst, `"bindings":{`...)
		for k, i := range sorted {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, a.Names[i])
			dst = append(dst, ':', '"')
			start := len(dst)
			dst = closeJSONString(term.Append(dst, a.Value(i), nil), start)
		}
		dst = append(dst, '}', ',')
	}
	dst = append(dst, `"text":"`...)
	start := len(dst)
	dst = closeJSONString(a.AppendText(dst), start)
	dst = append(dst, `,"bound":`...)
	dst = appendJSONFloat(dst, a.Bound)
	dst = append(dst, `,"depth":`...)
	dst = strconv.AppendInt(dst, int64(a.Depth), 10)
	return append(dst, '}')
}

// bindingOrder fills order with the indexes of names sorted by name in
// byte order, each name once: the key order encoding/json gives the
// Bindings map.
func bindingOrder(order []int, names []string) []int {
	order = order[:0]
	for i := range names {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(names[i], names[j]) })
	return slices.CompactFunc(order, func(i, j int) bool { return names[i] == names[j] })
}

// closeJSONString finishes the JSON string whose opening quote precedes
// the raw text at dst[start:]. Text that needs no escapes — the common
// case — gets its closing quote in place; otherwise it is escaped anew.
func closeJSONString(dst []byte, start int) []byte {
	for i := start; i < len(dst); {
		c := dst[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' {
				return appendJSONString(dst[:start-1], string(dst[start:]))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(dst[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return appendJSONString(dst[:start-1], string(dst[start:]))
		}
		i += size
	}
	return append(dst, '"')
}

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes with HTML escaping off: quote and backslash, \b \f \n \r \t,
// other control characters as \u00XX, U+2028 and U+2029 as \u2028 and
// \u2029, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' text, switching to 'e' below 1e-6 and from 1e21 on, with
// the exponent's leading zero dropped. encoding/json refuses NaN and the
// infinities (a bound is one only when a loaded weight file holds one);
// they are written as null, so the body stays valid JSON.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 becomes e-7.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// QueryResponse is the JSON body of a successful one-shot query.
type QueryResponse struct {
	Solutions []Solution `json:"solutions"`
	// Exhausted reports the engine searched the whole tree.
	Exhausted bool    `json:"exhausted"`
	Expanded  uint64  `json:"expanded"`
	Generated uint64  `json:"generated"`
	Failures  uint64  `json:"failures"`
	Strategy  string  `json:"strategy"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// RequestID is the query's q-%06d inspector ID, the correlation key
	// across the slow-query log, /debug/queries and /events.
	RequestID string `json:"request_id,omitempty"`
	// VMDispatched counts goals this query resolved on the compiled
	// bytecode engine (absent when the tree-walking oracle ran).
	VMDispatched uint64 `json:"vm_dispatched,omitempty"`
	// Session echoes the session id on session-scoped queries.
	Session string `json:"session,omitempty"`
	// Tabled-resolution counters, present on tabled:true queries: tables
	// materialized, answers derived, calls served from complete tables,
	// answers replayed from them (re-derivations avoided), and — rare —
	// consumptions of depth-truncated tables, which carry the same
	// completeness caveat as untabled depth cutoffs. The subsumption pair
	// (min(N) tables only) counts derivations dominated by a cheaper
	// memoized answer and memoized answers replaced by a cheaper one.
	TablesCreated        uint64 `json:"tables_created,omitempty"`
	TableAnswers         uint64 `json:"table_answers,omitempty"`
	TableHits            uint64 `json:"table_hits,omitempty"`
	RederivationsAvoided uint64 `json:"rederivations_avoided,omitempty"`
	TablesTruncated      uint64 `json:"tables_truncated,omitempty"`
	AnswersSubsumed      uint64 `json:"answers_subsumed,omitempty"`
	AnswersImproved      uint64 `json:"answers_improved,omitempty"`
	// Trace is the query's span tree, present on "trace":true requests.
	Trace *obs.Span `json:"trace,omitempty"`
}

// StreamEvent is one NDJSON line of POST /query/stream: solution lines
// first, then exactly one terminal line with Done set (carrying the final
// counters, or Error when the stream aborted).
type StreamEvent struct {
	Solution  *Solution `json:"solution,omitempty"`
	Done      bool      `json:"done,omitempty"`
	Exhausted bool      `json:"exhausted,omitempty"`
	Solutions int       `json:"solutions,omitempty"`
	Expanded  uint64    `json:"expanded,omitempty"`
	// RequestID is the query's q-%06d inspector ID (terminal line).
	RequestID string `json:"request_id,omitempty"`
	// VMDispatched counts compiled-path goal resolutions (terminal line).
	VMDispatched uint64 `json:"vm_dispatched,omitempty"`
	Error        string `json:"error,omitempty"`
	// Tabled-resolution counters on the terminal line of tabled:true
	// streams; see QueryResponse.
	TablesCreated        uint64 `json:"tables_created,omitempty"`
	TableAnswers         uint64 `json:"table_answers,omitempty"`
	TableHits            uint64 `json:"table_hits,omitempty"`
	RederivationsAvoided uint64 `json:"rederivations_avoided,omitempty"`
	TablesTruncated      uint64 `json:"tables_truncated,omitempty"`
	AnswersSubsumed      uint64 `json:"answers_subsumed,omitempty"`
	AnswersImproved      uint64 `json:"answers_improved,omitempty"`
	// Trace is the stream's span tree on the terminal line of
	// "trace":true requests.
	Trace *obs.Span `json:"trace,omitempty"`
}

// LiveQuery is one in-flight query in the GET /debug/queries listing.
type LiveQuery struct {
	ID        string  `json:"id"`
	Goal      string  `json:"goal"`
	Strategy  string  `json:"strategy"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Expanded is the query's expansion counter, synced by the engine
	// every 1024 expansions (0 for a query still starting up).
	Expanded uint64 `json:"expanded"`
}

// KillResponse is the body of DELETE /debug/queries/{id}: the victim's
// own request answers with 410 Gone.
type KillResponse struct {
	ID     string `json:"id"`
	Killed bool   `json:"killed"`
}

// ProfileResponse is the GET /profile body: the process-wide per-predicate
// profile, hottest (most attributed wall time) first.
type ProfileResponse struct {
	// TotalNanos is the wall time attributed across all predicates.
	TotalNanos uint64 `json:"total_nanos"`
	// Preds is the top-N rows (the n query parameter, default 20).
	Preds []obs.PredProfile `json:"preds"`
}

// SessionInfo describes one live session (POST /sessions response and
// GET /sessions elements).
type SessionInfo struct {
	ID           string  `json:"id"`
	Alpha        float64 `json:"alpha"`
	CreatedAt    string  `json:"created_at"`
	Queries      int     `json:"queries"`
	Successes    int     `json:"successes"`
	Failures     int     `json:"failures"`
	LocalLearned int     `json:"local_learned"`
}

// SessionEndResponse reports the conservative merge performed by
// DELETE /sessions/{id} (section 5's end-of-session global update).
type SessionEndResponse struct {
	ID               string `json:"id"`
	Adopted          int    `json:"adopted"`
	Averaged         int    `json:"averaged"`
	InfinitiesKept   int    `json:"infinities_kept"`
	InfinitiesVetoed int    `json:"infinities_vetoed"`
	Queries          int    `json:"queries"`
	Successes        int    `json:"successes"`
	Failures         int    `json:"failures"`
}

// ErrorResponse is the JSON body of every non-2xx response. RequestID is
// set when the failing query had an inspector ID — in particular the 410
// a killed query answers with, so the victim can correlate its death with
// the DELETE /debug/queries/{id} that caused it.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// TableEntry is one live answer table in the GET /tables inventory.
type TableEntry struct {
	Pred string `json:"pred"`
	Call string `json:"call"`
	// State is producing, complete, truncated (complete but depth-capped)
	// or dirty (complete but a dependency was invalidated; re-derives on
	// next touch).
	State string `json:"state"`
	// Answers and Bytes size the memoized answer set (bytes approximate).
	Answers int   `json:"answers"`
	Bytes   int64 `json:"bytes"`
	// Min is the cost-argument position of a min(N) table, 0 otherwise.
	Min int `json:"min,omitempty"`
	// Hits counts calls served from the complete table.
	Hits uint64 `json:"hits"`
	// Rounds is the fixpoint round count of the table's productions.
	Rounds int `json:"rounds"`
	// Revalidations counts re-derivations of this call pattern after
	// dependency invalidations (asserts on predicates it was derived from).
	Revalidations int `json:"revalidations,omitempty"`
	// Deps lists the predicate indicators the table's fixpoint consumed —
	// the dependency edges incremental maintenance tracks.
	Deps []string `json:"deps,omitempty"`
	// AgeMs is the time since creation; IdleMs since the last hit (absent
	// when never hit).
	AgeMs  float64 `json:"age_ms"`
	IdleMs float64 `json:"idle_ms,omitempty"`
}

// TablesResponse is the GET /tables body: the live tables ranked by
// retained bytes (largest first) plus the space-wide gauges.
type TablesResponse struct {
	Tables        []TableEntry `json:"tables"`
	Producing     int          `json:"producing"`
	Complete      int          `json:"complete"`
	Truncated     int          `json:"truncated"`
	Dirty         int          `json:"dirty"`
	RetainedBytes int64        `json:"retained_bytes"`
	Answers       int64        `json:"answers"`
}

// EventsResponse is the GET /events drain body: the retained journal
// events after the requested cursor, oldest first.
type EventsResponse struct {
	Events []blog.Event `json:"events"`
	// LastSeq is the newest sequence number assigned; pass it back as
	// ?after= to poll incrementally.
	LastSeq uint64 `json:"last_seq"`
	// Overwritten counts events lost to ring lap-around since start.
	Overwritten uint64 `json:"overwritten,omitempty"`
}

// Healthz is the GET /healthz body.
type Healthz struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	InFlight int     `json:"in_flight"`
	Queued   int     `json:"queued"`
}

// ProgramStats is the GET /stats body.
type ProgramStats struct {
	Clauses     int `json:"clauses"`
	Facts       int `json:"facts"`
	Rules       int `json:"rules"`
	Preds       int `json:"preds"`
	Arcs        int `json:"arcs"`
	LearnedArcs int `json:"learned_arcs"`
	Sessions    int `json:"sessions"`
	// TabledPreds lists the predicates declared `:- table name/arity`,
	// with subsumption modes rendered inline (e.g. "shortest/3 min(3)");
	// Tables and TableAnswers describe the live answer-table space
	// (cumulative counters are on /metrics).
	TabledPreds  []string `json:"tabled_preds,omitempty"`
	Tables       int      `json:"tables"`
	TableAnswers uint64   `json:"table_answers"`
}

func elapsedMs(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
