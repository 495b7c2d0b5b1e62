package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blog"
	"blog/internal/metrics"
	"blog/internal/obs"
)

// Config sizes the service around one shared Program.
type Config struct {
	// Program is the loaded knowledge base every request queries.
	Program *blog.Program

	// MaxConcurrent bounds queries running at once (default GOMAXPROCS).
	MaxConcurrent int
	// QueueLen bounds requests waiting for a slot; beyond it requests
	// fail fast with 429. 0 means the default (64); negative disables
	// waiting entirely (admit-or-reject).
	QueueLen int
	// MaxWorkers clamps the client-requested OR-parallel worker count, so
	// one admitted request cannot spawn unbounded goroutines (default 16).
	MaxWorkers int
	// DefaultTimeout bounds a query that asked for no deadline
	// (default 10s); MaxTimeout clamps client-requested deadlines
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// SolutionCap clamps per-query answer counts (default 1024).
	SolutionCap int
	// MaxSessions bounds live learning sessions (default 1024).
	MaxSessions int
	// SessionTTL evicts sessions idle for this long — their local weights
	// merge conservatively, exactly as an explicit end would — so
	// abandoned clients cannot exhaust MaxSessions forever (default 30m;
	// negative disables eviction).
	SessionTTL time.Duration
	// DefaultStrategy names the discipline used when a request leaves
	// strategy empty (default "best").
	DefaultStrategy string

	// JournalCapacity sizes the program's structured event journal (table
	// lifecycle, VM recompiles, session churn, rejections, kills, slow
	// queries) served by GET /events. 0 means the default (4096).
	JournalCapacity int

	// Logger receives the server's structured logs (slow queries,
	// inspector kills), each carrying the query's request ID. nil means
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold: a query whose wall time
	// reaches it is logged with its span tree and hottest predicates
	// (sampled — at most one log per second under sustained slowness).
	// 0 disables the slow-query log.
	SlowQuery time.Duration
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueLen == 0 {
		c.QueueLen = 64
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 16
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.SolutionCap <= 0 {
		c.SolutionCap = 1024
	}
	if c.DefaultStrategy == "" {
		c.DefaultStrategy = "best"
	}
	if c.JournalCapacity <= 0 {
		c.JournalCapacity = 4096
	}
}

// streamWriteGrace bounds how long one NDJSON line may sit in a stalled
// client's socket before the stream is abandoned and its slot freed.
const streamWriteGrace = 30 * time.Second

// Server is the query service. It implements http.Handler.
type Server struct {
	cfg      Config
	program  *blog.Program
	pool     *Pool
	sessions *registry
	metrics  *serverMetrics
	mux      *http.ServeMux
	start    time.Time
	logger   *slog.Logger

	// prof is the process-wide per-predicate profile served by
	// GET /profile; each query runs with its own profiler, merged in at
	// completion so slow-query logs see exact per-query attribution.
	prof *obs.Profiler
	// live is the in-flight query registry behind GET /debug/queries.
	live *obs.Registry
	// journal is the program's structured event journal behind GET /events
	// (enabled on the program at construction).
	journal *blog.Journal
	// slowLogged is the last slow-query log's unixnano, the sampling gate.
	slowLogged atomic.Int64

	// evictions tracks background idle-eviction merges so EndAllSessions
	// can join them before the caller persists the global table.
	evictions sync.WaitGroup
}

// New builds a Server over cfg.Program. cfg.Program must be non-nil.
func New(cfg Config) *Server {
	if cfg.Program == nil {
		panic("server: Config.Program is nil")
	}
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		program:  cfg.Program,
		pool:     NewPool(cfg.MaxConcurrent, cfg.QueueLen),
		sessions: newRegistry(cfg.MaxSessions, cfg.SessionTTL),
		metrics:  newServerMetrics(),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		logger:   cfg.Logger,
		prof:     obs.NewProfiler(),
		live:     obs.NewRegistry(),
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.journal = cfg.Program.EnableJournal(cfg.JournalCapacity)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /query/stream", s.handleStream)
	s.mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /sessions", s.handleSessionList)
	s.mux.HandleFunc("POST /sessions/{id}/query", s.handleSessionQuery)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionEnd)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("DELETE /debug/queries/{id}", s.handleDebugKill)
	s.mux.HandleFunc("GET /profile", s.handleProfile)
	s.mux.HandleFunc("GET /tables", s.handleTables)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Pool exposes the admission controller (tests and the daemon's logs).
func (s *Server) Pool() *Pool { return s.pool }

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	// Only genuine validation failures count as bad requests; 404s, 422
	// limit stops and 429s have their own accounting.
	if status == http.StatusBadRequest {
		s.metrics.badRequests.Inc()
	}
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// query is a decoded, validated request: the body, its goal parsed once —
// the parse the run takes — and the strategy, timeout and run settings the
// server resolved for it. It lives in the writer's state (rendering), so a
// pooled writer brings its own.
type query struct {
	QueryRequest
	parsed  blog.Goal
	strat   blog.Strategy
	timeout time.Duration
	set     blog.Settings
}

// decodeQuery decodes and validates the request body into q, and fills
// q.set from it. ok=false means an error response was already written.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request, q *query) (ok bool) {
	*q = query{}
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q.QueryRequest); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	if q.Goal == "" {
		s.writeError(w, http.StatusBadRequest, "missing goal")
		return false
	}
	var err error
	if q.parsed, err = blog.ParseGoal(q.Goal); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad goal: "+err.Error())
		return false
	}
	name := q.Strategy
	if name == "" {
		name = s.cfg.DefaultStrategy
	}
	if q.strat, err = blog.ParseStrategy(name); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return false
	}
	set := &q.set
	set.MaxSolutions = s.cfg.SolutionCap
	if q.MaxSolutions > 0 && q.MaxSolutions < set.MaxSolutions {
		set.MaxSolutions = q.MaxSolutions
	}
	q.timeout = s.cfg.DefaultTimeout
	if q.TimeoutMs > 0 {
		// Compare in milliseconds before multiplying: a huge timeout_ms
		// must clamp to MaxTimeout, not overflow into the past.
		if int64(q.TimeoutMs) >= int64(s.cfg.MaxTimeout/time.Millisecond) {
			q.timeout = s.cfg.MaxTimeout
		} else {
			q.timeout = time.Duration(q.TimeoutMs) * time.Millisecond
		}
	}
	if q.timeout > s.cfg.MaxTimeout {
		q.timeout = s.cfg.MaxTimeout
	}
	// Clamp the OR-parallel worker count: the pool bounds admitted
	// requests, this bounds the goroutines one admitted request can cost.
	if q.Workers > s.cfg.MaxWorkers {
		q.Workers = s.cfg.MaxWorkers
	}
	if q.Workers < 0 {
		q.Workers = 0
	}
	// A zero field is the option left out; a negative depth or slack is
	// too.
	set.MaxExpansions, set.Workers = q.MaxExpansions, q.Workers
	set.MaxDepth = max(q.MaxDepth, 0)
	set.Learn, set.AndParallel, set.Tabled = q.Learn, q.AndParallel, q.Tabled
	set.Prune = q.Prune || q.PruneSlack > 0
	set.PruneSlack = max(q.PruneSlack, 0)
	// The parallel workers share no incumbent bound yet; a pruned request
	// would get every solution back.
	if set.Prune && q.strat == blog.Parallel {
		s.writeError(w, http.StatusBadRequest, "prune and prune_slack need a sequential strategy; parallel does not prune")
		return false
	}
	set.Traced = q.Trace || s.cfg.SlowQuery > 0
	return true
}

// admit claims a worker slot for the request, mapping saturation to 429
// and client abandonment to a silent drop. ok=false means a response was
// written (or the client is gone).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	err := s.pool.Acquire(r.Context())
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrSaturated):
		s.metrics.rejected.Inc()
		s.journal.Emit(blog.Event{Kind: obs.KindAdmissionReject, Detail: r.URL.Path})
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	default:
		// Client gave up while queued; nothing useful to write.
		s.metrics.cancelled.Inc()
	}
	return false
}

// solutionWriter is the one thing the query endpoints differ in: how a
// run's answers and outcome reach the client. *oneShot answers with one
// JSON body, *streamWriter with an NDJSON line per answer; both render with
// appendSolution. Everything else, the run included, is serveQuery.
type solutionWriter interface {
	request() *query // the request state the writer carries

	// begin readies the writer for q, or refuses q with a badRequest.
	begin(s *Server, w http.ResponseWriter, q *query) error
	// yield renders one answer; an error stops the run.
	yield(a blog.Answer) error
	served() int // answers rendered
	// finish writes the outcome serveQuery classified.
	finish(w http.ResponseWriter, end outcome)
}

// rendering is what both writers keep across a run's answers, and the
// request they answer.
type rendering struct {
	q     query
	order []int // the query's binding key order (bindingOrder)
	n     int   // answers rendered
}

func (r *rendering) request() *query { return &r.q }

// appendNext appends a's wire Solution to dst.
func (r *rendering) appendNext(dst []byte, a blog.Answer) []byte {
	if r.n == 0 {
		r.order = bindingOrder(r.order, a.Names)
	}
	r.n++
	return appendSolution(dst, a, r.order)
}

func (r *rendering) served() int { return r.n }

// outcome is a finished query as serveQuery hands it to the writer.
type outcome struct {
	res *blog.Result // zero counters when the run failed before it started
	// status and msg are classify's verdict: 200 and "" on success.
	status    int
	msg       string
	requestID string
	strategy  string
	session   string // session id on session-scoped queries
	trace     bool   // the request asked for its span tree
	elapsedMs float64
}

// badRequest marks a run error as the request's fault — a shape the
// chosen endpoint cannot serve — rather than the engine's.
type badRequest struct{ error }

// errClientGone ends a stream whose client stopped reading. It wraps
// context.Canceled so it classifies as what it is: a client cancellation.
var errClientGone = fmt.Errorf("server: client went away mid-stream: %w", context.Canceled)

// classify is the one mapping from a query's error to what its client is
// told and which counter records it. lv is the query's inspector entry: a
// context.Canceled on a query it records as killed was cancelled through
// the live inspector, which the victim learns as 410 Gone — distinct from
// its own client disconnecting, where nobody is left to read a response
// (status 0: write nothing). A passed limit answers 422 naming itself,
// counts in its own series and journals query_over_limit (Detail: name).
func (s *Server) classify(lv *obs.Live, err error) (status int, msg string, counter *metrics.Counter) {
	var limit blog.LimitError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query timed out", &s.metrics.timeouts
	case errors.Is(err, context.Canceled) && lv.Killed():
		return http.StatusGone, obs.ErrKilled.Error(), &s.metrics.killed
	case errors.Is(err, context.Canceled):
		return 0, "", &s.metrics.cancelled
	case errors.As(err, &limit):
		s.metrics.limitStops[limit.Limit].Inc()
		s.journal.Emit(blog.Event{Kind: obs.KindQueryOverLimit, RequestID: lv.ID, Detail: limit.Limit.String()})
		return http.StatusUnprocessableEntity, limit.Error(), &s.metrics.budgetStops
	case errors.As(err, new(badRequest)):
		return http.StatusBadRequest, err.Error(), &s.metrics.badRequests
	default:
		return http.StatusInternalServerError, err.Error(), &s.metrics.errors
	}
}

// handleQuery serves POST /query: one-shot query over the shared Program.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	o := getOneShot()
	defer o.release()
	s.serveQuery(w, r, nil, o)
}

// handleStream serves POST /query/stream: solutions as NDJSON lines the
// moment the engine finds them, ending with one terminal line. Parallel
// and AND-parallel runs, whose answers exist only once they end, get 400.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, nil, &streamWriter{})
}

// serveQuery is the one request lifecycle behind POST /query, session
// queries and POST /query/stream: decode into the writer's request state,
// admit, count, bound the run by its timeout, register it live, profile
// it, run it through Program.Run, account for it and classify how it
// ended. out is the only difference between the endpoints.
//
// A run has one context. The timeout context is derived from the
// request's, and the query's inspector entry (obs.Live) wraps it: the
// entry is what the run takes as its context, so the request ID reaches
// the table space and the logs through it, and the inspector's kill
// cancels the timeout context after the entry records it. The run's
// settings are a value in the request state, filled from the body.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, entry *sessionEntry, out solutionWriter) {
	q := out.request()
	if !s.decodeQuery(w, r, q) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.pool.Release()
	// Counted at admission, so queries_total and the tabled/untabled split
	// mean the same thing on every endpoint regardless of how the query
	// ends.
	s.metrics.queries.Inc()
	if q.Tabled {
		s.metrics.tabledQueries.Inc()
	}

	end := outcome{status: http.StatusOK, strategy: q.strat.String(), trace: q.Trace}
	if entry != nil {
		q.set.Session = entry.s
		end.session = entry.id
	}
	ctx, cancel := context.WithTimeout(r.Context(), q.timeout)
	defer cancel()
	// DELETE /debug/queries/{id} kills through lv, which classify reads
	// back to answer this request with 410.
	lv := s.live.Add(q.Goal, end.strategy, cancel)
	defer s.live.Remove(lv)
	lv.Context = ctx
	// Every outcome carries the query's request ID, so a client can
	// correlate even a failure with the inspector, the slow-query log and
	// /events.
	end.requestID = lv.ID
	// Every query runs with its own profiler, merged into the process-wide
	// profile at completion; the per-query view feeds the slow-query log.
	qprof := profilers.Get().(*blog.Profiler)
	defer func() { qprof.Reset(); profilers.Put(qprof) }() // once merged and logged
	q.set.Prof, q.set.Live = qprof, lv

	start := time.Now()
	var res *blog.Result
	err := out.begin(s, w, q)
	if err == nil {
		res, err = s.program.Run(lv, q.parsed, q.strat, &q.set, out.yield)
	}
	elapsed := time.Since(start)
	s.metrics.latency.Observe(elapsed.Seconds())
	s.prof.Merge(qprof)
	if res == nil { // refused, or failed before the run started
		res = new(blog.Result)
	}
	end.res, end.elapsedMs = res, float64(elapsed)/float64(time.Millisecond)
	s.metrics.vmDispatch.Add(res.VMDispatched)
	s.metrics.parAcquires.Add(res.NetworkAcquires)
	s.metrics.parPublished.Add(res.Spills)
	s.metrics.parMigrations.Add(res.Migrations)
	s.metrics.parStartup.Add(res.StartupExpanded)
	s.metrics.parGrains.Add(res.GrainCount)
	s.metrics.parGrainExp.Add(res.GrainSum)
	s.metrics.parGrainMax.Observe(int64(res.GrainMax))
	s.metrics.openMax.Observe(int64(res.OpenMax))
	if err != nil {
		var counter *metrics.Counter
		end.status, end.msg, counter = s.classify(lv, err)
		counter.Inc()
		if end.status == 0 {
			return // client gone; a response is moot
		}
	} else {
		s.logSlowQuery(lv, q.Goal, end.strategy, elapsed, res.Spans, qprof)
		if entry != nil {
			entry.s.NoteQuery(out.served() > 0)
		}
	}
	out.finish(w, end)
}

// profilers recycles the per-query profilers: a reset one keeps its cells,
// so a query allocates none for the predicates it profiles.
var profilers = sync.Pool{New: func() any { return blog.NewProfiler() }}

// oneShot is the batch writer: the run renders every answer into a pooled
// buffer as the facade hands it over, and the outcome is one JSON body
// whose HTTP status is the classifier's. The envelope — everything but the
// solutions — still goes through encoding/json over QueryResponse; the
// rendered array takes the place of the [] its empty Solutions encodes to.
type oneShot struct {
	rendering
	body      []byte           // `{"solutions":[` and the rendered answers so far
	solutions *metrics.Counter // counts a successful run's answers
	env       bytes.Buffer     // the encoded envelope
	enc       *json.Encoder    // encodes into env
	resp      QueryResponse    // the envelope, encoded through a pointer
}

// solutionsOpen is how a QueryResponse encoding begins: solutions is its
// first field, so a body is this, the rendered answers, and the rest of
// the envelope after its empty array.
const solutionsOpen = `{"solutions":[`

// maxPooledBody bounds the buffers a oneShot takes back to the pool, so
// one huge answer set does not pin its memory for the process lifetime.
const maxPooledBody = 64 << 10

var oneShots = sync.Pool{New: func() any {
	o := new(oneShot)
	o.enc = json.NewEncoder(&o.env)
	o.enc.SetEscapeHTML(false)
	return o
}}

func getOneShot() *oneShot { return oneShots.Get().(*oneShot) }

// release returns o to the pool unless its buffers grew past
// maxPooledBody, holding no request's goal, session or spans.
func (o *oneShot) release() {
	o.q, o.resp = query{}, QueryResponse{}
	if cap(o.body) <= maxPooledBody && o.env.Cap() <= maxPooledBody {
		oneShots.Put(o)
	}
}

func (o *oneShot) begin(s *Server, _ http.ResponseWriter, _ *query) error {
	o.body, o.n, o.solutions = append(o.body[:0], solutionsOpen...), 0, &s.metrics.solutions
	return nil
}

// yield renders one answer into the body.
func (o *oneShot) yield(a blog.Answer) error {
	if o.n > 0 {
		o.body = append(o.body, ',')
	}
	o.body = o.appendNext(o.body, a)
	return nil
}

func (o *oneShot) finish(w http.ResponseWriter, end outcome) {
	if end.status != http.StatusOK {
		writeFailure(w, end)
		return
	}
	o.solutions.Add(uint64(o.n))
	res := end.res
	o.resp = QueryResponse{
		Solutions:            []Solution{},
		Exhausted:            res.Exhausted,
		Expanded:             res.Expanded,
		Generated:            res.Generated,
		Failures:             res.Failures,
		Strategy:             end.strategy,
		ElapsedMs:            end.elapsedMs,
		RequestID:            end.requestID,
		VMDispatched:         res.VMDispatched,
		Session:              end.session,
		TablesCreated:        res.TablesCreated,
		TableAnswers:         res.TableAnswers,
		TableHits:            res.TableHits,
		RederivationsAvoided: res.RederivationsAvoided,
		TablesTruncated:      res.TablesTruncated,
		AnswersSubsumed:      res.AnswersSubsumed,
		AnswersImproved:      res.AnswersImproved,
	}
	if end.trace {
		o.resp.Trace = res.Spans
	}
	o.env.Reset()
	// A QueryResponse holds strings, integers, finite floats and the span
	// tree, all of which encode.
	_ = o.enc.Encode(&o.resp)
	env := o.env.Bytes()
	if !bytes.HasPrefix(env, []byte(solutionsOpen+"]")) {
		panic("server: QueryResponse no longer encodes solutions first")
	}
	o.body = append(o.body, env[len(solutionsOpen):]...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(o.body)
}

// writeFailure writes a failed query's status and error body.
func writeFailure(w http.ResponseWriter, end outcome) {
	writeJSON(w, end.status, ErrorResponse{Error: end.msg, RequestID: end.requestID})
}

// streamWriter is the NDJSON writer: each answer goes out as its own line
// the moment the run hands it over, and the outcome is the terminal line.
// A request refused before the 200 header fails exactly as a one-shot
// does.
type streamWriter struct {
	rendering
	w        http.ResponseWriter
	rc       *http.ResponseController // nil until the 200 header is out
	flusher  http.Flusher
	streamed *metrics.Counter // counts the lines sent
	line     []byte           // the line being written
}

// errUnstreamable refuses a stream whose answers exist only once its run
// ends: a Parallel or AND-parallel one.
var errUnstreamable = badRequest{errors.New("solve: streaming requires a sequential, non-AND-parallel run")}

func (sw *streamWriter) begin(s *Server, w http.ResponseWriter, q *query) error {
	if q.strat == blog.Parallel || q.AndParallel {
		return errUnstreamable
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw.w, sw.streamed = w, &s.metrics.streamed
	sw.flusher, _ = w.(http.Flusher)
	sw.rc = http.NewResponseController(w)
	return nil
}

// yield sends one answer as its line. A client that stopped reading stops
// the run, and serveQuery's deferred Release frees the slot.
func (sw *streamWriter) yield(a blog.Answer) error {
	sw.line = append(sw.line[:0], `{"solution":`...)
	sw.line = append(sw.appendNext(sw.line, a), '}', '\n')
	if !sw.send(sw.line) {
		return errClientGone
	}
	sw.streamed.Inc()
	return nil
}

// send writes one NDJSON line. A client that stops reading must not pin
// the worker slot: every line gets a fresh write deadline set just before
// the write (never earlier — the engine may legitimately search longer
// than the grace between solutions), so a stalled connection errors out of
// the write and ends the run.
func (sw *streamWriter) send(line []byte) bool {
	_ = sw.rc.SetWriteDeadline(time.Now().Add(streamWriteGrace))
	if _, err := sw.w.Write(line); err != nil {
		return false
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return true
}

func (sw *streamWriter) finish(w http.ResponseWriter, end outcome) {
	if sw.rc == nil {
		writeFailure(w, end)
		return
	}
	res := end.res
	final := StreamEvent{
		Done:                 true,
		Exhausted:            res.Exhausted,
		Solutions:            sw.n,
		Expanded:             res.Expanded,
		RequestID:            end.requestID,
		VMDispatched:         res.VMDispatched,
		Error:                end.msg,
		TablesCreated:        res.TablesCreated,
		TableAnswers:         res.TableAnswers,
		TableHits:            res.TableHits,
		RederivationsAvoided: res.RederivationsAvoided,
		TablesTruncated:      res.TablesTruncated,
		AnswersSubsumed:      res.AnswersSubsumed,
		AnswersImproved:      res.AnswersImproved,
	}
	if end.trace {
		final.Trace = res.Spans
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if enc.Encode(final) == nil {
		sw.send(b.Bytes())
	}
	// Clear the deadline so a keep-alive connection is not poisoned for
	// its next request when the embedding http.Server has no WriteTimeout.
	_ = sw.rc.SetWriteDeadline(time.Time{})
}

// handleSessionCreate serves POST /sessions. An empty body means
// defaults.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Alpha float64 `json:"alpha"`
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &body); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	// 0 keeps the default; the session ignores any alpha outside (0, 1].
	if body.Alpha < 0 || body.Alpha > 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad alpha %v: want a value in (0, 1], or 0 for the default", body.Alpha))
		return
	}
	e, evicted, err := s.sessions.create(s.program, body.Alpha)
	s.mergeEvicted(evicted)
	if err != nil {
		if errors.Is(err, ErrSessionLimit) {
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
			return
		}
		s.metrics.errors.Inc()
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.sessionsOpen.Inc()
	s.journal.Emit(blog.Event{Kind: obs.KindSessionCreated, Detail: e.id})
	writeJSON(w, http.StatusCreated, e.info())
}

// mergeEvicted performs the conservative merge for idle-evicted sessions
// in the background, once any straggler query has released them.
func (s *Server) mergeEvicted(evicted []*sessionEntry) {
	for _, old := range evicted {
		s.evictions.Add(1)
		go func(old *sessionEntry) {
			defer s.evictions.Done()
			s.sessions.waitIdle(old)
			old.s.End()
			s.metrics.sessionsEnded.Inc()
			s.journal.Emit(blog.Event{Kind: obs.KindSessionEvicted, Detail: old.id})
		}(old)
	}
}

// EndAllSessions drains the registry and merges every live session, then
// joins any in-flight idle-eviction merges — the daemon calls this on
// shutdown so learned weights are never lost before persisting. It
// returns the number of registry sessions merged.
func (s *Server) EndAllSessions() int {
	drained := s.sessions.drain()
	for _, e := range drained {
		s.sessions.waitIdle(e)
		e.s.End()
		s.metrics.sessionsEnded.Inc()
	}
	s.evictions.Wait()
	return len(drained)
}

// handleSessionList serves GET /sessions, sweeping idle sessions first
// so the listing and gauges stay honest on a create-quiet server.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.mergeEvicted(s.sessions.sweep())
	entries := s.sessions.list()
	out := make([]SessionInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.info())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionQuery serves POST /sessions/{id}/query: the query's weight
// learning goes to the session's local store, so a client's session
// behaves exactly as section 5 prescribes. The acquired reference keeps a
// concurrent DELETE from merging mid-query.
func (s *Server) handleSessionQuery(w http.ResponseWriter, r *http.Request) {
	e, err := s.sessions.acquire(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.sessions.release(e)
	o := getOneShot()
	defer o.release()
	s.serveQuery(w, r, e, o)
}

// handleSessionEnd serves DELETE /sessions/{id}: the conservative
// end-of-session merge into the global table, after in-flight queries on
// the session finish (bounded by the per-query timeout).
func (s *Server) handleSessionEnd(w http.ResponseWriter, r *http.Request) {
	e, err := s.sessions.remove(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.sessions.waitIdle(e)
	adopted, averaged, kept, vetoed := e.s.End()
	qn, succ, fail := e.s.Counts()
	s.metrics.sessionsEnded.Inc()
	s.journal.Emit(blog.Event{
		Kind:   obs.KindSessionMerged,
		Detail: e.id,
		Count:  int64(adopted + averaged + kept),
	})
	writeJSON(w, http.StatusOK, SessionEndResponse{
		ID:               e.id,
		Adopted:          adopted,
		Averaged:         averaged,
		InfinitiesKept:   kept,
		InfinitiesVetoed: vetoed,
		Queries:          qn,
		Successes:        succ,
		Failures:         fail,
	})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Healthz{
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
		InFlight: s.pool.InFlight(),
		Queued:   s.pool.Queued(),
	})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	workers, queueLen := s.pool.Capacity()
	var tt tableTotals
	tt.active, tt.TableTotals = s.program.TableStats()
	tt.TableAccounting = s.program.TableAccounting()
	tt.poolFrames, tt.poolCompounds = blog.PoolHighWater()
	tt.journalEvents, tt.journalUnseen = s.journal.LastSeq(), s.journal.Overwritten()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(s.metrics.expose(s.pool.InFlight(), s.pool.Queued(), workers, queueLen, s.sessions.len(), tt)))
}

// logSlowQuery emits the structured slow-query record when the query's
// wall time reached the threshold: request ID, goal, strategy, elapsed,
// the rendered span tree, and the query's hottest predicates. Sampled to
// at most one record per second so a saturating slow workload cannot turn
// the log into the bottleneck (the slow_queries_total counter still
// counts every one).
func (s *Server) logSlowQuery(ctx context.Context, goal, strategy string, elapsed time.Duration, spans *blog.Span, prof *blog.Profiler) {
	if s.cfg.SlowQuery <= 0 || elapsed < s.cfg.SlowQuery {
		return
	}
	s.metrics.slowQueries.Inc()
	// Every slow query reaches the journal (cheap, bounded ring); only the
	// expensive structured log line below is sampled.
	s.journal.Emit(blog.Event{
		Kind:      obs.KindSlowQuery,
		RequestID: obs.RequestID(ctx),
		Millis:    float64(elapsed) / float64(time.Millisecond),
		Detail:    goal,
	})
	now := time.Now().UnixNano()
	last := s.slowLogged.Load()
	if now-last < int64(time.Second) || !s.slowLogged.CompareAndSwap(last, now) {
		return
	}
	attrs := []any{
		"request_id", obs.RequestID(ctx),
		"goal", goal,
		"strategy", strategy,
		"elapsed_ms", float64(elapsed) / float64(time.Millisecond),
	}
	if spans != nil {
		attrs = append(attrs, "spans", spans.Render())
	}
	if top := prof.Top(5); len(top) > 0 {
		hot := make([]string, 0, len(top))
		for _, p := range top {
			hot = append(hot, fmt.Sprintf("%s exp=%d nanos=%d", p.Pred, p.Expansions, p.Nanos))
		}
		attrs = append(attrs, "hot_preds", strings.Join(hot, "; "))
	}
	s.logger.Warn("slow query", attrs...)
}

// handleDebugQueries serves GET /debug/queries: the in-flight queries,
// oldest first, with goal, strategy, elapsed time and the engine-synced
// expansion counter.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	live := s.live.List()
	out := make([]LiveQuery, 0, len(live))
	for _, l := range live {
		out = append(out, LiveQuery{
			ID:        l.ID,
			Goal:      l.Goal,
			Strategy:  l.Strategy,
			ElapsedMs: elapsedMs(l.Start),
			Expanded:  l.Expanded.Load(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDebugKill serves DELETE /debug/queries/{id}: cancel an in-flight
// query through the inspector. The victim's own request answers 410; this
// request answers 200 with the kill acknowledged.
func (s *Server) handleDebugKill(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	l := s.live.Get(id)
	if l == nil {
		s.writeError(w, http.StatusNotFound, "no in-flight query "+id)
		return
	}
	l.Cancel()
	s.journal.Emit(blog.Event{Kind: obs.KindQueryKilled, RequestID: id, Detail: l.Goal})
	s.logger.Info("query killed via inspector", "request_id", id, "goal", l.Goal)
	writeJSON(w, http.StatusOK, KillResponse{ID: id, Killed: true})
}

// handleProfile serves GET /profile: the process-wide per-predicate
// profile, hottest first. ?n= bounds the row count (default 20).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	writeJSON(w, http.StatusOK, ProfileResponse{
		TotalNanos: s.prof.TotalNanos(),
		Preds:      s.prof.Top(n),
	})
}

// handleTables serves GET /tables: the live answer-table inventory ranked
// by retained bytes (largest first), with the space-wide gauges — the
// operator's what-is-holding-memory view of the table space.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	inv := s.program.TableInventory()
	acct := s.program.TableAccounting()
	resp := TablesResponse{
		Tables:        make([]TableEntry, 0, len(inv)),
		Producing:     acct.Producing,
		Complete:      acct.Complete,
		Truncated:     acct.Truncated,
		Dirty:         acct.Dirty,
		RetainedBytes: acct.RetainedBytes,
		Answers:       acct.Answers,
	}
	for _, ti := range inv {
		e := TableEntry{
			Pred:    ti.Pred,
			Call:    ti.Call,
			State:   ti.State,
			Answers: ti.Answers,
			Bytes:   ti.Bytes,
			Min:     ti.Min,
			Hits:    ti.Hits,
			Rounds:  ti.Rounds,

			Revalidations: ti.Revalidations,
			Deps:          ti.Deps,
		}
		if !ti.CreatedAt.IsZero() {
			e.AgeMs = float64(now.Sub(ti.CreatedAt)) / float64(time.Millisecond)
		}
		if !ti.LastHit.IsZero() {
			e.IdleMs = float64(now.Sub(ti.LastHit)) / float64(time.Millisecond)
		}
		resp.Tables = append(resp.Tables, e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// eventsFollowPoll is the journal poll cadence of GET /events?follow=1.
const eventsFollowPoll = 250 * time.Millisecond

// handleEvents serves GET /events: the structured engine-event journal.
// The default is a drain — retained events after the ?after= cursor, as
// one JSON body with the cursor to pass back. ?follow=1 switches to an
// NDJSON stream that polls the journal and writes events as they arrive
// until the client disconnects. ?kind=a,b filters either mode to the
// named event kinds.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad after cursor: "+err.Error())
			return
		}
		after = parsed
	}
	var kinds map[string]bool
	if v := q.Get("kind"); v != "" {
		kinds = make(map[string]bool)
		for _, k := range strings.Split(v, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds[k] = true
			}
		}
	}
	keep := func(evs []blog.Event) []blog.Event {
		if kinds == nil {
			return evs
		}
		out := evs[:0]
		for _, ev := range evs {
			if kinds[ev.Kind] {
				out = append(out, ev)
			}
		}
		return out
	}
	if q.Get("follow") == "" {
		events := keep(s.journal.Events(after))
		if events == nil {
			events = []blog.Event{}
		}
		writeJSON(w, http.StatusOK, EventsResponse{
			Events:      events,
			LastSeq:     s.journal.LastSeq(),
			Overwritten: s.journal.Overwritten(),
		})
		return
	}
	// Follow mode: NDJSON, one event per line, with the same write-deadline
	// discipline as the query stream so a stalled reader cannot pin the
	// connection goroutine forever.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	cursor := after
	ticker := time.NewTicker(eventsFollowPoll)
	defer ticker.Stop()
	for {
		events := s.journal.Events(cursor)
		if last := s.journal.LastSeq(); last > cursor {
			cursor = last
		}
		for _, ev := range keep(events) {
			_ = rc.SetWriteDeadline(time.Now().Add(streamWriteGrace))
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// handleStats serves GET /stats: the loaded program's shape.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	clauses, facts, rules, preds, arcs := s.program.Stats()
	tables, _ := s.program.TableStats()
	answers := uint64(s.program.TableAccounting().Answers)
	writeJSON(w, http.StatusOK, ProgramStats{
		Clauses:      clauses,
		Facts:        facts,
		Rules:        rules,
		Preds:        preds,
		Arcs:         arcs,
		LearnedArcs:  s.program.LearnedArcs(),
		Sessions:     s.sessions.len(),
		TabledPreds:  s.program.TabledPreds(),
		Tables:       tables,
		TableAnswers: answers,
	})
}
