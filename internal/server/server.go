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
	// budget stops and 429s have their own accounting.
	if status == http.StatusBadRequest {
		s.metrics.badRequests.Inc()
	}
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// decodeQuery parses and validates the request body into a QueryRequest
// plus resolved strategy, solution cap and timeout. A nil return means an
// error response was already written.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (*QueryRequest, blog.Strategy, int, time.Duration, bool) {
	var q QueryRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, 0, 0, 0, false
	}
	if q.Goal == "" {
		s.writeError(w, http.StatusBadRequest, "missing goal")
		return nil, 0, 0, 0, false
	}
	if err := blog.ValidateQuery(q.Goal); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad goal: "+err.Error())
		return nil, 0, 0, 0, false
	}
	name := q.Strategy
	if name == "" {
		name = s.cfg.DefaultStrategy
	}
	strat, err := blog.ParseStrategy(name)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return nil, 0, 0, 0, false
	}
	maxSol := s.cfg.SolutionCap
	if q.MaxSolutions > 0 && q.MaxSolutions < maxSol {
		maxSol = q.MaxSolutions
	}
	timeout := s.cfg.DefaultTimeout
	if q.TimeoutMs > 0 {
		// Compare in milliseconds before multiplying: a huge timeout_ms
		// must clamp to MaxTimeout, not overflow into the past.
		if int64(q.TimeoutMs) >= int64(s.cfg.MaxTimeout/time.Millisecond) {
			timeout = s.cfg.MaxTimeout
		} else {
			timeout = time.Duration(q.TimeoutMs) * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// Clamp the OR-parallel worker count: the pool bounds admitted
	// requests, this bounds the goroutines one admitted request can cost.
	if q.Workers > s.cfg.MaxWorkers {
		q.Workers = s.cfg.MaxWorkers
	}
	if q.Workers < 0 {
		q.Workers = 0
	}
	return &q, strat, maxSol, timeout, true
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
// run's solutions and its outcome reach the client. *oneShot answers with
// a single JSON body; *streamWriter with NDJSON lines as the engine finds
// solutions. Both render each answer once, with appendSolution, from the
// engine's terms. Everything else about a query is serveQuery.
type solutionWriter interface {
	// run executes the query under ctx, delivering solutions however this
	// writer does, and returns how many it rendered. A non-nil Result
	// carries the run's counters even beside an error.
	run(ctx context.Context, s *Server, w http.ResponseWriter, goal string, strat blog.Strategy, opts []blog.Option) (*blog.Result, int, error)
	// finish writes the outcome serveQuery classified: the success body or
	// terminal line, or the failure with its status and message.
	finish(w http.ResponseWriter, end outcome)
}

// outcome is a finished query as serveQuery hands it to the writer.
type outcome struct {
	res *blog.Result // nil when the run failed without counters
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
// told and which counter records it. ctx is the query's (possibly
// kill-cancelled) context: a context.Canceled whose cause is obs.ErrKilled
// was cancelled through the live inspector, which the victim learns as 410
// Gone — distinct from its own client disconnecting, where nobody is left
// to read a response (status 0: write nothing).
func (s *Server) classify(ctx context.Context, err error) (status int, msg string, counter *metrics.Counter) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query timed out", &s.metrics.timeouts
	case errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), obs.ErrKilled):
		return http.StatusGone, obs.ErrKilled.Error(), &s.metrics.killed
	case errors.Is(err, context.Canceled):
		return 0, "", &s.metrics.cancelled
	case errors.Is(err, blog.ErrBudget):
		return http.StatusUnprocessableEntity, "expansion budget exhausted before completion", &s.metrics.budgetStops
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
// moment the engine finds them, ending with one terminal line. Sequential
// strategies only (the streaming engine's constraint).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, nil, &streamWriter{})
}

// serveQuery is the one request lifecycle behind POST /query, session
// queries and POST /query/stream: decode, admit, count, bound the run by
// its timeout and the inspector's kill switch, register it live, profile
// it, run it, account for it and classify how it ended. out is the only
// difference between the endpoints.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, entry *sessionEntry, out solutionWriter) {
	q, strat, maxSol, timeout, ok := s.decodeQuery(w, r)
	if !ok {
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

	opts := q.options(maxSol)
	end := outcome{status: http.StatusOK, strategy: strat.String(), trace: q.Trace}
	if entry != nil {
		opts = append(opts, blog.InSession(entry.s))
		end.session = entry.id
	}
	tctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// The kill layer sits inside the timeout: DELETE /debug/queries/{id}
	// cancels with cause obs.ErrKilled, which classify reads back through
	// context.Cause to answer this request with 410.
	ctx, kill := context.WithCancelCause(tctx)
	defer kill(nil)
	lv := s.live.Add(q.Goal, end.strategy, kill)
	defer s.live.Remove(lv)
	// Every outcome carries the query's request ID, so a client can
	// correlate even a failure with the inspector, the slow-query log and
	// /events.
	ctx = obs.WithRequestID(ctx, lv.ID)
	end.requestID = lv.ID
	// Every query runs with its own profiler, merged into the process-wide
	// profile at completion; the per-query view feeds the slow-query log.
	qprof := blog.NewProfiler()
	opts = append(opts, blog.Profiled(qprof), blog.Monitor(lv))
	if q.Trace || s.cfg.SlowQuery > 0 {
		opts = append(opts, blog.Traced())
	}

	start := time.Now()
	res, served, err := out.run(ctx, s, w, q.Goal, strat, opts)
	elapsed := time.Since(start)
	s.metrics.latency.Observe(elapsed.Seconds())
	s.prof.Merge(qprof)
	end.res, end.elapsedMs = res, float64(elapsed)/float64(time.Millisecond)
	if res != nil {
		s.metrics.vmDispatch.Add(res.VMDispatched)
		s.metrics.parAcquires.Add(res.NetworkAcquires)
		s.metrics.parPublished.Add(res.Spills)
		s.metrics.parMigrations.Add(res.Migrations)
	}
	if err != nil {
		var counter *metrics.Counter
		end.status, end.msg, counter = s.classify(ctx, err)
		counter.Inc()
		if end.status == 0 {
			return // client gone; a response is moot
		}
	} else {
		s.logSlowQuery(ctx, q.Goal, end.strategy, elapsed, res.Spans, qprof)
		if entry != nil {
			entry.s.NoteQuery(served > 0)
		}
	}
	out.finish(w, end)
}

// oneShot is the batch writer: the run renders every answer into a pooled
// buffer as the facade hands it over, and the outcome is one JSON body
// whose HTTP status is the classifier's. The envelope — everything but the
// solutions — still goes through encoding/json over QueryResponse; the
// rendered array takes the place of the [] its empty Solutions encodes to.
type oneShot struct {
	body  []byte // `{"solutions":[` and the rendered answers so far
	order []int  // the query's binding key order (bindingOrder)
	n     int    // answers rendered
	yield func(blog.Answer) error
	env   bytes.Buffer  // the encoded envelope
	enc   *json.Encoder // encodes into env
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
	o.yield = o.add
	o.enc = json.NewEncoder(&o.env)
	o.enc.SetEscapeHTML(false)
	return o
}}

func getOneShot() *oneShot { return oneShots.Get().(*oneShot) }

// release returns o to the pool unless its buffers grew past
// maxPooledBody.
func (o *oneShot) release() {
	if cap(o.body) <= maxPooledBody && o.env.Cap() <= maxPooledBody {
		oneShots.Put(o)
	}
}

// add renders one answer into the body.
func (o *oneShot) add(a blog.Answer) error {
	if o.n == 0 {
		o.order = bindingOrder(o.order, a.Names)
	} else {
		o.body = append(o.body, ',')
	}
	o.body = appendSolution(o.body, a, o.order)
	o.n++
	return nil
}

func (o *oneShot) run(ctx context.Context, s *Server, _ http.ResponseWriter, goal string, strat blog.Strategy, opts []blog.Option) (*blog.Result, int, error) {
	o.body, o.n = append(o.body[:0], solutionsOpen...), 0
	res, err := s.program.QueryEach(ctx, goal, strat, o.yield, opts...)
	if err == nil {
		s.metrics.solutions.Add(uint64(o.n))
	}
	return res, o.n, err
}

func (o *oneShot) finish(w http.ResponseWriter, end outcome) {
	if end.status != http.StatusOK {
		writeFailure(w, end)
		return
	}
	res := end.res
	resp := QueryResponse{
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
		resp.Trace = res.Spans
	}
	o.env.Reset()
	// A QueryResponse holds strings, integers, finite floats and the span
	// tree, all of which encode.
	_ = o.enc.Encode(resp)
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

// streamWriter is the NDJSON writer: the run pulls the query's iterator
// and writes each answer as its own line; the outcome is the terminal
// line. A run refused before the first line (a request shape the
// streaming engine cannot serve) fails exactly as a one-shot does.
type streamWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController // nil until the 200 header is out
	flusher http.Flusher
	line    []byte // the line being written
	order   []int  // the query's binding key order (bindingOrder)
	served  int
}

func (sw *streamWriter) run(ctx context.Context, s *Server, w http.ResponseWriter, goal string, strat blog.Strategy, opts []blog.Option) (*blog.Result, int, error) {
	it, err := s.program.IterContext(ctx, goal, strat, opts...)
	if err != nil {
		// Everything rejected here is a request shape problem (parallel
		// strategy, AND-parallel) — the goal already parsed.
		return nil, 0, badRequest{err}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw.w = w
	sw.flusher, _ = w.(http.Flusher)
	sw.rc = http.NewResponseController(w)
	a, more, err := it.NextAnswer()
	for ; more; a, more, err = it.NextAnswer() {
		if sw.served == 0 {
			sw.order = bindingOrder(sw.order, a.Names)
		}
		sw.line = append(sw.line[:0], `{"solution":`...)
		sw.line = append(appendSolution(sw.line, a, sw.order), '}', '\n')
		if !sw.send(sw.line) {
			// The deferred Release frees the slot and ctx cancellation
			// stops the engine on the next pull.
			err = errClientGone
			break
		}
		sw.served++
		s.metrics.streamed.Inc()
	}
	return &blog.Result{Counters: it.Stats().Counters, Exhausted: it.Exhausted(), Spans: it.Spans()}, sw.served, err
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
		Solutions:            sw.served,
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
	var tot blog.TableTotals
	tt.active, tot = s.program.TableStats()
	tt.created, tt.answers, tt.hits, tt.reuse = tot.Created, tot.Answers, tot.Hits, tot.RederivationsAvoided
	tt.subsumed, tt.improved = tot.Subsumed, tot.Improved
	tt.dirtied, tt.revalidated = tot.Dirtied, tot.Revalidated
	acct := s.program.TableAccounting()
	tt.producing, tt.complete, tt.truncated, tt.dirty = acct.Producing, acct.Complete, acct.Truncated, acct.Dirty
	tt.retainedBytes = acct.RetainedBytes
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
	l.Cancel(obs.ErrKilled)
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
	tableInfos := s.program.Tables()
	answers := uint64(0)
	for _, ti := range tableInfos {
		answers += uint64(ti.Answers)
	}
	tables := len(tableInfos)
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
