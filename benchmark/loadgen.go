package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"blog"
	"blog/internal/server"
)

// service is one blogd-shaped server: a freshly loaded Program behind
// server.New with blogd's defaults, served on a loopback socket by a real
// http.Server in this process. In-process is the only way to assert
// clauses beside the reads, since blogd has no assert route.
type service struct {
	prog *blog.Program
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startService(src string) (*service, error) {
	prog, err := blog.LoadString(src)
	if err != nil {
		return nil, fmt.Errorf("load program: %w", err)
	}
	srv := server.New(server.Config{
		Program: prog,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		prog: prog,
		srv:  srv,
		// blogd's own settings: -max-timeout 2m plus a minute of write slack.
		http: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second, WriteTimeout: 3 * time.Minute},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // always ErrServerClosed after stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for the serve
// loop to return.
func (s *service) stop() {
	_ = s.http.Close()
	<-s.done
	s.srv.EndAllSessions()
}

// client is one connection to the service. Its transport keeps exactly
// one keep-alive connection, so a workload's client count is also its
// connection count.
type client struct {
	base string
	path string // query route: /query, or the current session's
	// send delivers a request and returns the status and the whole reply,
	// which stays valid until the next send.
	send  func(*http.Request) (int, []byte, error)
	close func()
}

func newClient(base string) *client {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	var buf bytes.Buffer
	return &client{
		base: base,
		path: "/query",
		send: func(req *http.Request) (int, []byte, error) {
			resp, err := hc.Do(req)
			if err != nil {
				return 0, nil, err
			}
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			return resp.StatusCode, buf.Bytes(), err
		},
		close: hc.CloseIdleConnections,
	}
}

// recorder is an in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// newDirectClient is a client with no socket: its requests go straight
// into the handler and its replies into memory.
func newDirectClient(h http.Handler) *client {
	rec := &recorder{header: http.Header{}}
	return &client{
		path: "/query",
		send: func(req *http.Request) (int, []byte, error) {
			clear(rec.header)
			rec.status = http.StatusOK
			rec.body.Reset()
			h.ServeHTTP(rec, req)
			return rec.status, rec.body.Bytes(), nil
		},
		close: func() {},
	}
}

func (c *client) request(method, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err == nil && body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := c.request(method, path, body)
	if err != nil {
		return 0, nil, err
	}
	return c.send(req)
}

func (c *client) sessionStart() error {
	status, body, err := c.do(http.MethodPost, "/sessions", nil)
	if err != nil {
		return err
	}
	var info server.SessionInfo
	if status != http.StatusCreated || json.Unmarshal(body, &info) != nil || info.ID == "" {
		return fmt.Errorf("create session: status %d: %s", status, body)
	}
	c.path = "/sessions/" + info.ID + "/query"
	return nil
}

func (c *client) sessionEnd() error {
	path := c.path[:len(c.path)-len("/query")]
	c.path = "/query"
	status, body, err := c.do(http.MethodDelete, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("end session: status %d: %s", status, body)
	}
	return nil
}

// answer is the part of a query reply the benchmark reads: the solution
// texts to verify and the engine's work counters.
type answer struct {
	Solutions []struct {
		Text string `json:"text"`
	} `json:"solutions"`
	Exhausted    bool   `json:"exhausted"`
	Expanded     uint64 `json:"expanded"`
	Failures     uint64 `json:"failures"`
	VMDispatched uint64 `json:"vm_dispatched"`
}

// engineCounts sums the engine's own work counters over replies. They
// are exact counts, so on a fixed request sequence they must repeat.
type engineCounts struct {
	queries, expanded, failures, vmDispatched, solutions uint64
}

func (e *engineCounts) add(a *answer) {
	e.queries++
	e.expanded += a.Expanded
	e.failures += a.Failures
	e.vmDispatched += a.VMDispatched
	e.solutions += uint64(len(a.Solutions))
}

// check verifies a reply: status 200, the whole tree searched, and
// exactly the expected answer set (an answer derived twice counts once).
func (q *query) check(status int, body []byte, a *answer) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.req.Goal, status, body)
	}
	*a = answer{}
	if err := json.Unmarshal(body, a); err != nil {
		return fmt.Errorf("%s: reply: %w", q.req.Goal, err)
	}
	texts := make([]string, len(a.Solutions))
	for i, s := range a.Solutions {
		texts[i] = s.Text
	}
	return q.checkTexts(texts, a.Exhausted)
}

func (q *query) checkTexts(texts []string, exhausted bool) error {
	if !exhausted {
		return fmt.Errorf("%s: search not exhausted", q.req.Goal)
	}
	seen := 0
	for i, t := range texts {
		if !q.want[t] {
			return fmt.Errorf("%s: unexpected answer %q", q.req.Goal, t)
		}
		dup := false
		for _, u := range texts[:i] {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			seen++
		}
	}
	if seen != len(q.want) {
		return fmt.Errorf("%s: %d distinct answers, want %d", q.req.Goal, seen, len(q.want))
	}
	return nil
}

// repetition is what one timed region on one fresh service measured.
type repetition struct {
	setupS     float64
	wallS      float64 // the timed region, first send to last reply
	cpuS       float64 // process user+system CPU over the timed region
	mallocs    uint64  // heap objects allocated over the timed region
	liveHeapMB float64

	attempted, failed int // operations: queries, asserts, session starts and ends
	queries           int // verified-OK queries
	asserts           int
	latMs             []float64            // latency of each OK query
	classMs           map[string][]float64 // the same by query class
	firstErr          error

	// Open loop only.
	lateMs    []float64 // how late each request left, against its due time
	offered   int
	queuedMax int
	rejected  int // replies with status 429

	tables0, tables1 blog.TableTotals
	retainedBytes    int64
	learnedArcs      int
	gcCycles         uint32
	gcPauseMs        float64
	stealPct         float64
}

// endToEnd is the repetition's value of every end-to-end metric.
func (r *repetition) endToEnd() map[string]float64 {
	n := float64(r.queries)
	return map[string]float64{
		"setup_s":          r.setupS,
		"throughput_qps":   n / r.wallS,
		"latency_p50_ms":   median(r.latMs),
		"latency_p99_ms":   percentile(r.latMs, 99),
		"cpu_ms_per_query": 1000 * r.cpuS / n,
		"allocs_per_query": float64(r.mallocs) / n,
		"live_heap_mb":     r.liveHeapMB,
	}
}

// tally collects a repetition's results from its clients under a lock.
type tally struct {
	rep *repetition
	mu  sync.Mutex
}

func (t *tally) fail(err error) {
	t.mu.Lock()
	t.rep.attempted++
	t.rep.failed++
	if t.rep.firstErr == nil {
		t.rep.firstErr = err
	}
	t.mu.Unlock()
}

func (t *tally) okOp(asserted bool) {
	t.mu.Lock()
	t.rep.attempted++
	if asserted {
		t.rep.asserts++
	}
	t.mu.Unlock()
}

func (t *tally) okQuery(q *query, ms float64) {
	t.mu.Lock()
	r := t.rep
	r.attempted++
	r.queries++
	r.latMs = append(r.latMs, ms)
	r.classMs[q.class] = append(r.classMs[q.class], ms)
	t.mu.Unlock()
}

// runOp performs one operation of a closed-loop stream. Only queries are
// timed for latency; asserts and session starts and ends count as
// operations and against throughput.
func runOp(svc *service, c *client, o op, t *tally) {
	switch o.kind {
	case opAssert:
		if err := svc.prog.Assert(o.clause); err != nil {
			t.fail(fmt.Errorf("assert %s: %w", o.clause, err))
			return
		}
		t.okOp(true)
	case opSessionStart:
		if err := c.sessionStart(); err != nil {
			t.fail(err)
			return
		}
		t.okOp(false)
	case opSessionEnd:
		if err := c.sessionEnd(); err != nil {
			t.fail(err)
			return
		}
		t.okOp(false)
	default:
		timedQuery(c, o.q, time.Now(), t)
	}
}

// timedQuery sends q and records its latency from `from`: the moment of
// sending in a closed loop, the due time in an open loop.
func timedQuery(c *client, q *query, from time.Time, t *tally) {
	status, body, err := c.do(http.MethodPost, c.path, q.body)
	ms := float64(time.Since(from)) / float64(time.Millisecond)
	if err != nil {
		t.fail(fmt.Errorf("%s: %w", q.req.Goal, err))
		return
	}
	if status == http.StatusTooManyRequests {
		t.mu.Lock()
		t.rep.rejected++
		t.mu.Unlock()
	}
	var a answer
	if err := q.check(status, body, &a); err != nil {
		t.fail(err)
		return
	}
	t.okQuery(q, ms)
}

// rig is a service set up for a repetition: started, connected to and
// warmed.
type rig struct {
	svc     *service
	clients []*client
	streams []*stream
}

func (r *rig) stop() {
	for _, c := range r.clients {
		c.close()
	}
	r.svc.stop()
}

// setUp goes from source text to a warm service: LoadString, listening,
// the cold fixpoints of the tabled workloads, then warmOps operations per
// client. It returns how long that took.
func setUp(in *instance) (*rig, float64, error) {
	runtime.GC()
	rep := &repetition{classMs: map[string][]float64{}}
	t := &tally{rep: rep}
	start := time.Now()
	svc, err := startService(in.src)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{svc: svc}
	for i := 0; i < in.w.clients; i++ {
		r.clients = append(r.clients, newClient(svc.url))
		r.streams = append(r.streams, in.stream(i))
	}
	for _, q := range in.tabled {
		timedQuery(r.clients[0], q, time.Now(), t)
	}
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func(c *client, s *stream) {
			defer wg.Done()
			for n := 0; n < warmOps; n++ {
				runOp(svc, c, s.next(), t)
			}
		}(r.clients[i], r.streams[i])
	}
	wg.Wait()
	seconds := time.Since(start).Seconds()
	if rep.failed > 0 {
		r.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", rep.firstErr)
	}
	return r, seconds, nil
}

// runRepetition sets up a fresh service and puts a fixed amount of work
// through it: the given number of queries, shared evenly among the clients
// of a closed loop — each with the asserts and the session starts and ends
// its stream puts between them — or scheduled in an open loop. Every
// repetition of a run replays the same seeded streams, so its values differ
// from the next one's by noise alone.
func runRepetition(in *instance, queries int) (*repetition, error) {
	rep := &repetition{classMs: map[string][]float64{}}
	t := &tally{rep: rep}
	r, setupS, err := setUp(in)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	rep.setupS = setupS
	svc := r.svc
	perClient := (queries + in.w.clients - 1) / in.w.clients
	var (
		due []time.Duration
		qs  []*query
	)
	if in.w.rate > 0 {
		due, qs = in.schedule(queries)
	}
	rep.latMs = make([]float64, 0, queries+sessionLen*in.w.clients)

	// The set-up's garbage is collected so every timed region starts from
	// the same heap.
	runtime.GC()
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	steal0, total0 := hostCPU()
	_, rep.tables0 = svc.prog.TableStats()
	cpu0, mallocs0, start := cpuSeconds(), mallocs(), time.Now()
	if in.w.rate > 0 {
		openLoop(svc, r.clients, due, qs, start, t)
	} else {
		var wg sync.WaitGroup
		for i := range r.clients {
			wg.Add(1)
			go func(c *client, s *stream) {
				defer wg.Done()
				// A session that has begun is finished, so the timed
				// region always ends on an operation boundary.
				for n := 0; n < perClient || c.path != "/query"; {
					o := s.next()
					runOp(svc, c, o, t)
					if o.kind == opQuery {
						n++
					}
				}
			}(r.clients[i], r.streams[i])
		}
		wg.Wait()
	}
	rep.wallS = time.Since(start).Seconds()
	rep.cpuS = cpuSeconds() - cpu0
	rep.mallocs = mallocs() - mallocs0

	steal1, total1 := hostCPU()
	rep.stealPct = stealPct(steal0, total0, steal1, total1)
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	rep.gcCycles = uint32(gc1.NumGC - gc0.NumGC)
	rep.gcPauseMs = float64(gc1.PauseTotal-gc0.PauseTotal) / float64(time.Millisecond)
	_, rep.tables1 = svc.prog.TableStats()
	rep.retainedBytes = svc.prog.TableAccounting().RetainedBytes
	rep.learnedArcs = svc.prog.LearnedArcs()
	// Two collections: the first only moves what sync.Pools hold into their
	// victim caches, and how full those are when the region ends is timing,
	// not retention (0.38-0.57 MB on search_deep after one, 0.36-0.38 MB
	// after two).
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	if rep.queries == 0 {
		return nil, fmt.Errorf("%s: no query succeeded: %v", in.w.name, rep.firstErr)
	}
	return rep, nil
}

// schedule fixes an open loop's arrivals before the run: n Poisson
// arrivals at the workload's rate, drawn from the seed, each with the query
// it will carry.
func (in *instance) schedule(n int) (due []time.Duration, qs []*query) {
	sched := in.stream(in.w.clients) // a stream no sender warmed up on
	arrivals := rand.New(rand.NewSource(in.seed ^ 0x5eed))
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(arrivals.ExpFloat64() / in.w.rate * float64(time.Second))
		due = append(due, at)
		qs = append(qs, sched.next().q)
	}
	return due, qs
}

// openLoop offers the scheduled requests. One scheduler goroutine sleeps
// until each due time and hands the request to whichever sender is free;
// the sender times it from the due time, so a stall delays — and is charged
// to — every request behind it. How late each request left is kept too: it
// is the generator's own share of the latency.
func openLoop(svc *service, clients []*client, due []time.Duration, qs []*query, start time.Time, t *tally) {
	t.rep.offered = len(due)
	t.rep.lateMs = make([]float64, len(due))

	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				if q := svc.srv.Pool().Queued(); q > t.rep.queuedMax {
					t.rep.queuedMax = q
				}
			}
		}
	}()

	released := make(chan int)
	go func() {
		defer close(released)
		// The scheduler sleeps in nanosleep(2) on a thread of its own: a Go
		// timer wakes an idle process through epoll, whose timeout is in
		// whole milliseconds, twice the mean gap between requests here.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i, at := range due {
			for d := time.Until(start.Add(at)); d > 0; d = time.Until(start.Add(at)) {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
			}
			released <- i
		}
	}()

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range released {
				at := start.Add(due[i])
				t.rep.lateMs[i] = float64(time.Since(at)) / float64(time.Millisecond)
				timedQuery(c, qs[i], at, t)
			}
		}(c)
	}
	wg.Wait()
	close(stopSampling)
	sampler.Wait()
}
