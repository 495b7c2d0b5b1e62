// Command blogd serves a loaded logic program as a concurrent query
// service over HTTP/JSON — the "shared logic database driven by many
// query sessions" deployment the paper assumes. One blog.Program is
// shared by every request; a bounded worker pool with admission control
// keeps overload flat (429s), and per-request deadlines cancel abandoned
// searches.
//
// Usage:
//
//	blogd -f program.pl [-addr :8331] [-pool 8] [-queue 64] [-timeout 10s]
//
// Endpoints:
//
//	POST   /query                one-shot query (JSON in, JSON out)
//	POST   /query/stream         streaming query (NDJSON solutions)
//	POST   /sessions             create a learning session
//	GET    /sessions             list live sessions
//	POST   /sessions/{id}/query  query with session-scoped learning
//	DELETE /sessions/{id}        end the session (conservative merge)
//	GET    /healthz              liveness + pool gauges
//	GET    /metrics              Prometheus-style counters and latency histogram
//	GET    /stats                loaded program shape
//	GET    /profile              process-wide per-predicate profile (hottest first)
//	GET    /debug/queries        in-flight queries (live inspector)
//	DELETE /debug/queries/{id}   cancel an in-flight query (victim gets 410)
//	GET    /tables               memoized tables ranked by retained bytes
//	GET    /events               engine event journal (drain, or ?follow=1 NDJSON)
//
// Logs are structured (log/slog text format) on stdout; -slow-query
// turns on the sampled slow-query log, which records each offender's
// span tree and hottest predicates under its request ID. -v drops the
// log level to debug and tails the engine event journal into the log,
// one line per table/session/VM lifecycle event.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"blog"
	"blog/internal/server"
)

func main() {
	var (
		file       = flag.String("f", "", "program file to load (required)")
		addr       = flag.String("addr", ":8331", "listen address (host:port; port 0 picks a free port)")
		pool       = flag.Int("pool", 0, "max concurrent queries (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "max queued queries before 429 (0 = reject when all workers busy)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-query deadline")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "hard cap on client-requested deadlines")
		solCap     = flag.Int("solution-cap", 1024, "max solutions returned per query")
		maxWorkers = flag.Int("max-workers", 16, "cap on client-requested parallel workers per query")
		sessions   = flag.Int("sessions", 1024, "max live learning sessions")
		sessionTTL = flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle this long (merging their weights)")
		strategy   = flag.String("strategy", "best", "default strategy: dfs | bfs | best | parallel")
		usePrelude = flag.Bool("prelude", false, "prepend the list/pair standard library")
		weightsIn  = flag.String("weights", "", "load a saved global weight table at startup")
		weightsOut = flag.String("weights-out", "", "save the global weight table on shutdown")
		tableSnap  = flag.String("table-snapshot", "", "persistent table snapshot file: loaded and validated at boot, rewritten on graceful shutdown (and periodically; see -snapshot-interval)")
		snapEvery  = flag.Duration("snapshot-interval", 5*time.Minute, "rewrite -table-snapshot at this cadence while serving (0 = only on shutdown)")
		pprofOn    = flag.Bool("pprof", false, "expose /debug/pprof endpoints for profiling the hot path")
		slowQuery  = flag.Duration("slow-query", 0, "log queries slower than this with span tree and hot predicates (0 = off)")
		verbose    = flag.Bool("v", false, "debug logging; tails the engine event journal into the log")
	)
	flag.Parse()
	logLevel := slog.LevelInfo
	if *verbose {
		logLevel = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: logLevel}))
	slog.SetDefault(logger)
	if *file == "" {
		fmt.Fprintln(os.Stderr, "blogd: -f program file is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	prog, err := blog.LoadString(string(src), blog.Config{Prelude: *usePrelude})
	if err != nil {
		fatal(err)
	}
	if *weightsIn != "" {
		f, err := os.Open(*weightsIn)
		if err != nil {
			fatal(err)
		}
		err = prog.LoadWeights(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if _, err := blog.ParseStrategy(*strategy); err != nil {
		fatal(err)
	}
	clauses, facts, rules, preds, arcs := prog.Stats()
	logger.Info("loaded program", "file", *file, "clauses", clauses, "facts", facts,
		"rules", rules, "predicates", preds, "arcs", arcs)

	queueLen := *queue
	if queueLen == 0 {
		queueLen = -1 // the operator's 0 means "no waiting", not the default
	}
	srv := server.New(server.Config{
		Program:         prog,
		MaxConcurrent:   *pool,
		QueueLen:        queueLen,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		SolutionCap:     *solCap,
		MaxWorkers:      *maxWorkers,
		MaxSessions:     *sessions,
		SessionTTL:      *sessionTTL,
		DefaultStrategy: *strategy,
		Logger:          logger,
		SlowQuery:       *slowQuery,
	})
	workers, queueLen := srv.Pool().Capacity()

	// The snapshot loads after server.New so the journal (enabled there)
	// records the snapshot_loaded event for /events. A missing file is a
	// cold boot, not an error; a table that fails validation (changed
	// clauses, changed tabling mode) is skipped and re-derives on touch.
	// And because the snapshot is a cache, not state, an unreadable or torn
	// file must never keep the daemon down: log it and boot cold — tables
	// loaded before the error are individually validated and stay.
	if *tableSnap != "" {
		if f, err := os.Open(*tableSnap); err == nil {
			loaded, skipped, lerr := prog.LoadTables(f)
			f.Close()
			if lerr != nil {
				logger.Error("table snapshot unreadable; starting cold", "file", *tableSnap, "err", lerr, "loaded", loaded, "skipped", skipped)
			} else {
				logger.Info("loaded table snapshot", "file", *tableSnap, "tables", loaded, "skipped", skipped)
			}
		} else if !os.IsNotExist(err) {
			logger.Error("table snapshot unreadable; starting cold", "file", *tableSnap, "err", err)
		}
	}

	// The query service owns every route; profiling endpoints mount on an
	// outer mux only when asked for, so production surfaces nothing extra
	// by default.
	handler := http.Handler(srv)
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", srv)
		handler = outer
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// A response (including a full NDJSON stream, which is bounded by
		// the query deadline) must finish within the query cap plus write
		// slack, so a client that never reads cannot pin a worker slot.
		WriteTimeout: *maxTimeout + time.Minute,
	}
	logger.Info("listening", "addr", ln.Addr().String(), "pool", workers, "queue", queueLen)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *verbose {
		go tailJournal(ctx, prog.Journal(), logger)
	}
	// snapDone joins the periodic-snapshot goroutine before the shutdown
	// snapshot write, so the two never run writeSnapshot concurrently (the
	// write mutex already prevents interleaved file writes; the join also
	// keeps the shutdown from renaming an older periodic write over the
	// final one).
	snapDone := make(chan struct{})
	if *tableSnap != "" && *snapEvery > 0 {
		go func() {
			defer close(snapDone)
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n, err := writeSnapshot(prog, *tableSnap); err != nil {
						logger.Error("periodic table snapshot", "err", err)
					} else {
						logger.Debug("wrote table snapshot", "file", *tableSnap, "tables", n)
					}
				}
			}
		}()
	} else {
		close(snapDone)
	}
	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	stop() // release the periodic-snapshot goroutine even on the serve-error path
	<-snapDone

	// Merge every live session before persisting, so learning from
	// clients that never sent DELETE survives the restart.
	if n := srv.EndAllSessions(); n > 0 {
		logger.Info("merged live sessions", "n", n)
	}
	if *tableSnap != "" {
		n, err := writeSnapshot(prog, *tableSnap)
		if err != nil {
			fatal(err)
		}
		logger.Info("saved table snapshot", "file", *tableSnap, "tables", n)
	}
	if *weightsOut != "" {
		f, err := os.Create(*weightsOut)
		if err != nil {
			fatal(err)
		}
		err = prog.SaveWeights(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		logger.Info("saved weights", "file", *weightsOut, "learned_arcs", prog.LearnedArcs())
	}
}

// tailJournal follows the engine event journal into the debug log, one
// line per table/session/VM lifecycle event — the -v operator's running
// commentary. Zero-valued fields are elided so each line carries only the
// shape its kind was emitted with.
func tailJournal(ctx context.Context, j *blog.Journal, logger *slog.Logger) {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	var cursor uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, ev := range j.Events(cursor) {
			cursor = ev.Seq
			attrs := []any{"seq", ev.Seq, "kind", ev.Kind}
			if ev.RequestID != "" {
				attrs = append(attrs, "request_id", ev.RequestID)
			}
			if ev.Pred != "" {
				attrs = append(attrs, "pred", ev.Pred)
			}
			if ev.Call != "" {
				attrs = append(attrs, "call", ev.Call)
			}
			if ev.Cause != "" {
				attrs = append(attrs, "cause", ev.Cause)
			}
			if ev.Count != 0 {
				attrs = append(attrs, "count", ev.Count)
			}
			if ev.Bytes != 0 {
				attrs = append(attrs, "bytes", ev.Bytes)
			}
			if ev.Rounds != 0 {
				attrs = append(attrs, "rounds", ev.Rounds)
			}
			if ev.Generation != 0 {
				attrs = append(attrs, "generation", ev.Generation)
			}
			if ev.Millis != 0 {
				attrs = append(attrs, "ms", ev.Millis)
			}
			if ev.Detail != "" {
				attrs = append(attrs, "detail", ev.Detail)
			}
			logger.Debug("engine event", attrs...)
		}
	}
}

// snapMu serializes snapshot writes. The periodic ticker and the shutdown
// path are already kept apart by the snapDone join, but the mutex makes
// writeSnapshot safe on its own terms: two concurrent calls would each
// write a distinct temp file (os.CreateTemp) and rename a complete one
// into place, never a torn interleave.
var snapMu sync.Mutex

// writeSnapshot serializes the table space to path via a uniquely named
// temp file in the same directory and an atomic rename, so a crash
// mid-write never truncates the previous snapshot. The temp file is
// synced before the rename: otherwise, after a power loss, the new name
// could point at data that never reached the disk.
func writeSnapshot(prog *blog.Program, path string) (int, error) {
	snapMu.Lock()
	defer snapMu.Unlock()
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := prog.SaveTables(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "blogd: %v\n", err)
	os.Exit(1)
}
