package server

import (
	"fmt"
	"strings"

	"blog"
	"blog/internal/metrics"
)

// serverMetrics aggregates the service's operational counters. Counters
// are atomic (internal/metrics.Counter); the latency distribution is a
// lock-free log-bucketed histogram (internal/metrics.Histogram) covering
// 100µs to 60s, exposed as the full Prometheus bucket series.
type serverMetrics struct {
	queries       metrics.Counter // queries admitted to a worker slot
	solutions     metrics.Counter // solutions returned (one-shot bodies)
	streamed      metrics.Counter // solutions streamed over NDJSON
	rejected      metrics.Counter // 429s from the admission controller
	badRequests   metrics.Counter // 4xx validation failures
	timeouts      metrics.Counter // queries ended by their deadline
	cancelled     metrics.Counter // queries ended by client disconnect
	budgetStops   metrics.Counter // queries ended by any limit (422)
	errors        metrics.Counter // engine/internal failures (5xx)
	killed        metrics.Counter // queries cancelled via the live inspector
	slowQueries   metrics.Counter // queries over the slow-query threshold
	sessionsOpen  metrics.Counter // sessions created
	sessionsEnded metrics.Counter // sessions merged and closed

	limitStops [blog.NumLimits]metrics.Counter // budgetStops split by limit

	// tabledQueries counts queries (one-shot and streaming) run with
	// tabled:true; the cumulative table counters themselves come from the
	// program's table space at exposition time, so the streaming path and
	// session queries are covered without duplicating counter state.
	tabledQueries metrics.Counter

	// vmDispatch sums goals resolved on the compiled bytecode engine
	// across all queries, one-shot or streamed, failed ones included: a
	// sequential run reports its dispatches however it ends.
	vmDispatch metrics.Counter

	// The OR-parallel network, summed over parallel queries: chains
	// workers took from it, chains published to it, and migrations.
	parAcquires   metrics.Counter
	parPublished  metrics.Counter
	parMigrations metrics.Counter
	// Its start-up and grain (par.NetworkStats), summed, and the largest
	// grain.
	parStartup, parGrains, parGrainExp metrics.Counter
	parGrainMax                        metrics.Max

	// openMax is the largest open list a best-first or BFS query has
	// held, the high-water mark of its frontier's memory.
	openMax metrics.Max

	// latency buckets every completed query's wall time in seconds.
	latency *metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{latency: metrics.NewLatencyHistogram()}
}

// tableTotals carries the program table space's cumulative counters and
// live resource gauges into the exposition, with the process pool
// high-water marks and the journal's counters.
type tableTotals struct {
	active int
	blog.TableTotals
	blog.TableAccounting
	poolFrames, poolCompounds    int64
	journalEvents, journalUnseen uint64
}

// expose renders the Prometheus-style text exposition of GET /metrics.
func (m *serverMetrics) expose(inFlight, queued, workers, queueLen, sessions int, tt tableTotals) string {
	var b strings.Builder
	line := func(name string, v any) { fmt.Fprintf(&b, "blogd_%s %v\n", name, v) }
	line("queries_total", m.queries.Load())
	line("solutions_total", m.solutions.Load())
	line("stream_solutions_total", m.streamed.Load())
	line("rejected_total", m.rejected.Load())
	line("bad_requests_total", m.badRequests.Load())
	line("timeouts_total", m.timeouts.Load())
	line("cancelled_total", m.cancelled.Load())
	line("budget_stops_total", m.budgetStops.Load())
	for l := range blog.NumLimits {
		fmt.Fprintf(&b, "blogd_limit_stops_total{limit=%q} %d\n", l, m.limitStops[l].Load())
	}
	line("errors_total", m.errors.Load())
	line("killed_total", m.killed.Load())
	line("slow_queries_total", m.slowQueries.Load())
	line("sessions_created_total", m.sessionsOpen.Load())
	line("sessions_ended_total", m.sessionsEnded.Load())
	line("sessions_active", sessions)
	line("tabled_queries_total", m.tabledQueries.Load())
	line("vm_dispatch_total", m.vmDispatch.Load())
	line("par_network_acquires_total", m.parAcquires.Load())
	line("par_chains_published_total", m.parPublished.Load())
	line("par_migrations_total", m.parMigrations.Load())
	line("par_startup_expanded_total", m.parStartup.Load())
	line("par_grain_chains_total", m.parGrains.Load())
	line("par_grain_expansions_total", m.parGrainExp.Load())
	line("par_grain_max", m.parGrainMax.Load())
	line("open_list_highwater", m.openMax.Load())
	line("tables_created_total", tt.Created)
	line("table_answers_total", tt.TableTotals.Answers)
	line("table_hits_total", tt.Hits)
	line("rederivations_avoided_total", tt.RederivationsAvoided)
	line("table_answers_subsumed_total", tt.Subsumed)
	line("table_answers_improved_total", tt.Improved)
	line("tables_dirtied_total", tt.Dirtied)
	line("tables_revalidated_total", tt.Revalidated)
	line("tables_extended_total", tt.Extended)
	line("tables_active", tt.active)
	line("table_retained_bytes", tt.RetainedBytes)
	fmt.Fprintf(&b, "blogd_tables_by_state{state=\"producing\"} %d\n", tt.Producing)
	fmt.Fprintf(&b, "blogd_tables_by_state{state=\"complete\"} %d\n", tt.Complete)
	fmt.Fprintf(&b, "blogd_tables_by_state{state=\"truncated\"} %d\n", tt.Truncated)
	fmt.Fprintf(&b, "blogd_tables_by_state{state=\"dirty\"} %d\n", tt.Dirty)
	line("pool_frames_highwater", tt.poolFrames)
	line("pool_compounds_highwater", tt.poolCompounds)
	line("journal_events_total", tt.journalEvents)
	line("journal_events_overwritten_total", tt.journalUnseen)
	line("in_flight", inFlight)
	line("queue_depth", queued)
	line("pool_workers", workers)
	line("pool_queue_capacity", queueLen)
	// The full latency distribution, Prometheus histogram conventions:
	// cumulative buckets, le="+Inf" equal to _count, _sum in seconds.
	bounds, counts := m.latency.Buckets()
	for i, ub := range bounds {
		fmt.Fprintf(&b, "blogd_query_duration_seconds_bucket{le=\"%g\"} %d\n", ub, counts[i])
	}
	fmt.Fprintf(&b, "blogd_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.latency.Count())
	fmt.Fprintf(&b, "blogd_query_duration_seconds_sum %.6f\n", m.latency.Sum())
	fmt.Fprintf(&b, "blogd_query_duration_seconds_count %d\n", m.latency.Count())
	return b.String()
}
