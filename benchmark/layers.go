package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"blog"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/table"
	"blog/internal/vm"
)

// perLayerValues runs the traced pass for one workload: the ladder, the
// set-up and table layers timed on their own, and one repetition of load
// for the counts only a loaded service produces. It returns every
// per-layer metric; one that the workload does not exercise reads 0.
func perLayerValues(in *instance, seconds float64, repQueries int, traceDir string) (map[string]float64, *repetition, error) {
	m := map[string]float64{}
	for _, spec := range perLayer {
		m[spec.Name] = 0
	}
	queries := int(float64(in.w.ladderN) * seconds / 10)
	if queries < 20 {
		queries = 20
	}
	l := newLadder(in, queries)
	rungs, err := l.run()
	if err != nil {
		return nil, nil, err
	}
	med := map[string]float64{}
	for name, r := range rungs {
		med[name] = median(r.ns)
		if name != dfsBaseline {
			m[name+".ns_per_query"] = med[name]
			m[name+".allocs_per_query"] = r.allocs
			m[name+".self_ns_per_query"] = med[name]
		}
	}
	for child, parent := range rungParent {
		if parent != "" {
			m[parent+".self_ns_per_query"] -= med[child]
		}
	}
	m["obs.overhead_ns_per_query"] = med["blog.query_obs"] - med["blog.query"]
	m["obs.overhead_allocs_per_query"] = rungs["blog.query_obs"].allocs - rungs["blog.query"].allocs
	m["session.create.ns"] = median(rungs["server.handler"].opNs[opSessionStart])
	m["session.end.ns"] = median(rungs["server.handler"].opNs[opSessionEnd])
	if n := float64(l.engine.queries); n > 0 {
		m["engine.expanded_per_query"] = float64(l.engine.expanded) / n
		m["engine.failures_per_query"] = float64(l.engine.failures) / n
		m["engine.vm_dispatched_per_query"] = float64(l.engine.vmDispatched) / n
		m["engine.solutions_per_query"] = float64(l.engine.solutions) / n
	}
	if dfs, ok := med[dfsBaseline]; ok {
		n := float64(len(rungs["search.run"].ns) + warmOps)
		m["par.seq_ratio"] = med["search.run"] / dfs
		m["par.migrations_per_query"] = float64(l.par.migrations) / n
		m["par.network_acquires_per_query"] = float64(l.par.acquires) / n
		m["par.worker_imbalance"] = median(l.par.imbalance)
	}
	m["trace.overhead_ns_per_span"] = spanOverheadNs()

	if err := setupLayers(in, m); err != nil {
		return nil, nil, err
	}
	if asserted := rungs["blog.query"].opNs[opAssert]; len(asserted) > 0 {
		m["kb.assert.ns"] = median(asserted) // with 64 complete tables to dirty
	}
	if in.tabled != nil {
		if err := tableLayers(in, m); err != nil {
			return nil, nil, err
		}
	}

	rep, err := runRepetition(in, repQueries)
	if err != nil {
		return nil, nil, err
	}
	hits := float64(rep.tables1.Hits - rep.tables0.Hits)
	created := float64(rep.tables1.Created - rep.tables0.Created)
	rederived := float64(rep.tables1.Revalidated - rep.tables0.Revalidated)
	if touches := hits + created + rederived; touches > 0 {
		m["table.hit_ratio"] = hits / touches
	}
	if rep.asserts > 0 {
		m["table.rederivations_per_assert"] = rederived / float64(rep.asserts)
	}
	m["table.retained_bytes"] = float64(rep.retainedBytes)
	m["weights.learned_arcs"] = float64(rep.learnedArcs)
	m["latency_p99_ms"] = percentile(rep.latMs, 99)
	m["pool.queued_max"] = float64(rep.queuedMax)
	m["pool.rejected_ratio"] = float64(rep.rejected) / float64(rep.attempted)
	if rep.offered > 0 {
		m["loadgen.late_ms_p99"] = percentile(rep.lateMs, 99)
		m["loadgen.offered_qps"] = float64(rep.offered) / rep.wallS
		for _, class := range []string{"point", "tabled", "search"} {
			m["class."+class+".latency_p50_ms"] = median(rep.classMs[class])
		}
	}
	m["runtime.gc_cycles"] = float64(rep.gcCycles)
	m["runtime.gc_pause_ms"] = rep.gcPauseMs
	m["host.steal_pct"] = rep.stealPct

	// Spans stay in memory until everything has been measured.
	if err := l.writeTrace(traceDir); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	return m, rep, nil
}

// timeMedian runs f n times and returns the median duration in ns.
func timeMedian(n int, f func() error) (float64, error) {
	ns := make([]float64, n)
	for i := range ns {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns[i] = float64(time.Since(start))
	}
	return median(ns), nil
}

// setupLayers times what loading a program is made of, on the workload's
// own source text: parse, database load (parse included), bytecode
// compile, the warm compile-cache probe every query makes, and one assert.
func setupLayers(in *instance, m map[string]float64) error {
	db, _, err := kb.LoadString(in.src)
	if err != nil {
		return err
	}
	clauses := float64(db.Len())
	ns, err := timeMedian(5, func() error { _, err := parse.Source(in.src); return err })
	if err != nil {
		return err
	}
	m["parse.source.ns_per_clause"] = ns / clauses
	ns, _ = timeMedian(5, func() error { _, _, err := kb.LoadString(in.src); return err })
	m["kb.load.ns_per_clause"] = ns / clauses
	ns, _ = timeMedian(5, func() error { vm.Compile(db); return nil })
	m["vm.compile.ns_per_clause"] = ns / clauses
	vm.For(db)
	const probes = 100_000
	start := time.Now()
	for i := 0; i < probes; i++ {
		vm.For(db)
	}
	m["vm.for_hit.ns"] = float64(time.Since(start)) / probes

	prog, err := blog.LoadString(in.src)
	if err != nil {
		return err
	}
	i := 0
	m["kb.assert.ns"], err = timeMedian(200, func() error {
		i++
		return prog.Assert(fmt.Sprintf("bench_probe(k%d).", i))
	})
	return err
}

// tableLayers times the table space through its public API on a fresh
// space over the workload's cyclic graph: cold fixpoint, replay of the
// complete table, re-derivation on first touch after an assert, and the
// snapshot codec. Times are per answer of the 64-answer tables.
func tableLayers(in *instance, m map[string]float64) error {
	f, err := newInner(in.src)
	if err != nil {
		return err
	}
	defer f.space.Close()
	// touch answers q against sp and returns ns and allocations per answer.
	touch := func(sp *table.Space, q *query) (ns, allocs float64, err error) {
		goals, err := parse.Query(q.req.Goal)
		if err != nil {
			return 0, 0, err
		}
		a0, start := mallocs(), time.Now()
		res, err := search.Run(context.Background(), f.db, f.global, goals, search.Options{
			Strategy: search.DFS, MaxSolutions: solutionCap, Tabler: sp.NewHandle(),
		})
		d, a1 := time.Since(start), mallocs()
		if err != nil {
			return 0, 0, err
		}
		if len(res.Solutions) != len(q.want) || !res.Exhausted {
			return 0, 0, fmt.Errorf("%s: %d answers, want %d", q.req.Goal, len(res.Solutions), len(q.want))
		}
		n := float64(len(res.Solutions))
		return float64(d) / n, float64(a1-a0) / n, nil
	}
	pass := func(sp *table.Space, name string) error {
		var ns, allocs []float64
		for _, q := range in.tabled {
			n, a, err := touch(sp, q)
			if err != nil {
				return err
			}
			ns, allocs = append(ns, n), append(allocs, a)
		}
		m["table."+name+".ns_per_answer"] = median(ns)
		m["table."+name+".allocs_per_answer"] = median(allocs)
		return nil
	}
	if err := pass(f.space, "fixpoint"); err != nil {
		return err
	}
	if err := pass(f.space, "replay"); err != nil {
		return err
	}

	answers := float64(f.space.Accounting().Answers)
	var snap bytes.Buffer
	start := time.Now()
	if _, err := f.space.WriteSnapshot(&snap); err != nil {
		return err
	}
	m["table.snapshot_write.ns_per_answer"] = float64(time.Since(start)) / answers
	m["table.snapshot.bytes_per_answer"] = float64(snap.Len()) / answers
	fresh := table.NewSpace(f.db, table.Config{MaxDepth: f.global.Config().A})
	defer fresh.Close()
	a0, start := mallocs(), time.Now()
	loaded, skipped, err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes()))
	d, a1 := time.Since(start), mallocs()
	if err != nil || skipped != 0 || loaded != len(in.tabled) {
		return fmt.Errorf("snapshot read: loaded %d, skipped %d: %v", loaded, skipped, err)
	}
	m["table.snapshot_read.ns_per_answer"] = float64(d) / answers
	m["table.snapshot_read.allocs_per_answer"] = float64(a1-a0) / answers

	var rederive []float64
	for i := 0; i < 16; i++ {
		if err := f.assert(in.chords[len(in.chords)-1-i]); err != nil {
			return err
		}
		ns, _, err := touch(f.space, in.tabled[i])
		if err != nil {
			return err
		}
		rederive = append(rederive, ns)
	}
	m["table.rederive.ns_per_answer"] = median(rederive)
	return nil
}
