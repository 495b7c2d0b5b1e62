// Package machine assembles the full parallel B-LOG machine of figure 5:
// N scoreboard-style processors, each multitasking M chain-development
// tasks over a local memory of paged-in clause blocks; one or more
// semantic paging disks holding the partitioned database; and the
// interconnection fabric (minimum-seeking tree plus banyan) that hands the
// globally cheapest open chain to a free task when it is at least D
// cheaper than the task's local minimum.
//
// Unlike package par (a live goroutine engine measuring real wall-clock
// speedup), this is a deterministic cycle-level simulation: it expands the
// real OR-tree of a real query, but charges every action — index search,
// environment copy, unification, SPD page-in, network transfer — the
// latency its hardware model defines. Experiments F5, E5 and E7 run here.
package machine

import (
	"errors"
	"fmt"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/network"
	"blog/internal/sim"
	"blog/internal/spd"
	"blog/internal/term"
	"blog/internal/weights"
)

// Config describes the machine build.
type Config struct {
	// Processors is N, the processor count (default 4).
	Processors int
	// TasksPerProcessor is M (default 2).
	TasksPerProcessor int
	// Disks is the number of SPDs the database is striped over (default 1).
	Disks int
	// DiskGeometry configures each SPD.
	DiskGeometry spd.Geometry
	// DiskMode selects SP ganging within each SPD.
	DiskMode spd.Mode
	// CacheTracksPerSP sets each SP's cache capacity.
	CacheTracksPerSP int
	// LocalBlocks is each processor's local-memory capacity in clause
	// blocks (default 64); misses page in from the SPDs.
	LocalBlocks int
	// PageDistance is the Hamming distance paged in around a missed block.
	PageDistance int
	// D is the section-6 migration threshold.
	D float64
	// AdaptiveD lets the machine retune D at run time from the measured
	// communication overhead, as section 6 proposes ("D can be modified
	// at run time, based on the measured communication overhead"): when
	// the banyan blocks too often D doubles, when it is idle D halves.
	AdaptiveD bool
	// LocalCap bounds a processor's local open list; excess chains are
	// offered to the network.
	LocalCap int

	// Latencies (cycles).
	SearchCycles    sim.Time
	UnifyCycles     sim.Time
	CopySetupCycles sim.Time
	CopyPerWord     sim.Time
	WeightCycles    sim.Time
	// MultiWrite enables the shift-register memory for child env copies.
	MultiWrite bool
	// NetNodeDelay is the min-tree comparator delay per level.
	NetNodeDelay sim.Time
	// NetSetup and NetPerWord parameterize banyan transfers.
	NetSetup   sim.Time
	NetPerWord sim.Time

	// MaxSolutions stops the run early (0 = all).
	MaxSolutions int
	// MaxExpansions bounds the simulated work (default 2_000_000).
	MaxExpansions uint64
	// MaxDepth bounds chain length (0 = the weight store's A).
	MaxDepth int
	// Learn applies section-5 weight updates during the run.
	Learn bool
}

// DefaultConfig returns a small figure-5 machine.
func DefaultConfig() Config {
	return Config{
		Processors:        4,
		TasksPerProcessor: 2,
		Disks:             2,
		DiskGeometry:      spd.DefaultGeometry(),
		DiskMode:          spd.MIMD,
		CacheTracksPerSP:  4,
		LocalBlocks:       64,
		PageDistance:      1,
		D:                 2,
		LocalCap:          32,
		SearchCycles:      4,
		UnifyCycles:       6,
		CopySetupCycles:   2,
		CopyPerWord:       1,
		WeightCycles:      1,
		MultiWrite:        true,
		NetNodeDelay:      1,
		NetSetup:          4,
		NetPerWord:        1,
		MaxExpansions:     2_000_000,
	}
}

// SolutionEvent is a solution with the cycle it was found at.
type SolutionEvent struct {
	Solution engine.Solution
	At       sim.Time
	Proc     int
}

// Report summarizes a machine run.
type Report struct {
	Cycles        sim.Time
	Solutions     []SolutionEvent
	FirstSolution sim.Time // 0 when none
	Expanded      uint64
	Failures      uint64
	Migrations    uint64
	Spills        uint64
	NetTransfers  uint64
	NetBlocked    uint64
	PageIns       uint64
	PageInCycles  sim.Time
	// DFinal is the migration threshold at the end of the run (equals
	// Config.D unless AdaptiveD retuned it); DAdjustments counts retunes.
	DFinal       float64
	DAdjustments uint64
	ProcBusy     []sim.Time
	ProcUtil     []float64
	DiskStats    []spd.Stats
	Exhausted    bool
	Err          error
}

// Machine is one configured instance. Build once, Run per query.
type Machine struct {
	cfg Config
	db  *kb.DB
	ws  weights.Store
	// carryD holds the adaptive controller's threshold across runs, so a
	// session of queries keeps its tuned D ("modified at run time, based
	// on the measured communication overhead") instead of restarting the
	// cold transient every query.
	carryD    float64
	hasCarryD bool
}

// New builds a machine over a database and weight store.
func New(cfg Config, db *kb.DB, ws weights.Store) (*Machine, error) {
	if cfg.Processors <= 0 {
		cfg.Processors = 4
	}
	if cfg.TasksPerProcessor <= 0 {
		cfg.TasksPerProcessor = 2
	}
	if cfg.Disks <= 0 {
		cfg.Disks = 1
	}
	if cfg.LocalBlocks <= 0 {
		cfg.LocalBlocks = 64
	}
	if cfg.LocalCap <= 0 {
		cfg.LocalCap = 32
	}
	if cfg.MaxExpansions == 0 {
		cfg.MaxExpansions = 2_000_000
	}
	if cfg.DiskGeometry.Cylinders == 0 {
		cfg.DiskGeometry = spd.DefaultGeometry()
	}
	// Capacity check: stripe the blocks over the disks.
	per := (db.Len() + cfg.Disks - 1) / cfg.Disks
	if per > cfg.DiskGeometry.Capacity() {
		return nil, fmt.Errorf("machine: %d clauses exceed %d disks x capacity %d",
			db.Len(), cfg.Disks, cfg.DiskGeometry.Capacity())
	}
	return &Machine{cfg: cfg, db: db, ws: ws}, nil
}

// Run simulates the machine answering the query. With AdaptiveD set, the
// tuned threshold carries over to the next Run on the same Machine.
func (m *Machine) Run(goals []term.Term) (*Report, error) {
	if len(goals) == 0 {
		return nil, errors.New("machine: empty query")
	}
	r := newRun(m, goals)
	if m.cfg.AdaptiveD && m.hasCarryD {
		r.curD = m.carryD
	}
	rep, err := r.run()
	if m.cfg.AdaptiveD {
		m.carryD = r.curD
		m.hasCarryD = true
	}
	return rep, err
}

// RunSession simulates a succession of queries on one machine, returning
// each query's report. Under AdaptiveD the controller's threshold warms
// up across queries, which is the regime the section-6 remark targets.
func (m *Machine) RunSession(queries [][]term.Term) ([]*Report, error) {
	reports := make([]*Report, 0, len(queries))
	for _, goals := range queries {
		rep, err := m.Run(goals)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// run holds one simulation's mutable state.
type run struct {
	m     *Machine
	cfg   Config
	s     sim.Sim
	exp   *engine.Expander
	qvars []*term.Var
	// qterms are qvars as the terms a solution node's answer reads.
	qterms []term.Term

	// network
	minTree *network.MinTree
	banyan  *network.Banyan
	netPool engine.NodeHeap // chains offered to the network
	arbiter *network.PriorityArbiter

	// disks: blocks striped by clause ID round-robin; each disk is
	// fronted by a Resource serializing its requests.
	disks    []*spd.SPD
	diskRes  []*sim.Resource
	allBlock []spd.Block

	procs []*proc

	outstanding int
	stop        bool
	rep         *Report

	// curD is the live migration threshold; the adaptive controller
	// retunes it from the banyan's blocked-transfer ratio.
	curD          float64
	lastTransfers uint64
	lastBlocked   uint64
}

// proc is one processor's state.
type proc struct {
	id    int
	local engine.NodeHeap
	// memory is the set of clause blocks in local memory, LRU-ordered.
	memory  map[kb.ClauseID]bool
	lru     []kb.ClauseID
	busy    sim.Time
	waiting bool // registered with the arbiter
	tasks   int  // active tasks
}

func newRun(m *Machine, goals []term.Term) *run {
	r := &run{m: m, cfg: m.cfg, rep: &Report{}}
	r.exp = engine.NewExpander(m.db, m.ws)
	// The cycle model charges per-binding copy costs calibrated against
	// the tree-walking engine; the bytecode VM elides bindings and would
	// skew the simulated transfer sizes, so the simulator stays on the
	// walker.
	r.exp.NoVM = true
	if m.cfg.MaxDepth > 0 {
		r.exp.MaxDepth = m.cfg.MaxDepth
	}
	for _, g := range goals {
		r.qvars = term.VarsUnder(nil, g, r.qvars)
	}
	for _, v := range r.qvars {
		r.qterms = append(r.qterms, v)
	}
	r.minTree = network.NewMinTree(m.cfg.Processors, m.cfg.NetNodeDelay)
	r.banyan = network.NewBanyan(&r.s, m.cfg.Processors+m.cfg.Disks, m.cfg.NetSetup, m.cfg.NetPerWord)
	r.arbiter = network.NewPriorityArbiter(m.cfg.Processors, m.cfg.NetNodeDelay)

	// Build and load the disks: block i goes to disk i%Disks with a dense
	// per-disk ID; we keep the global blocks for data.
	r.allBlock = spd.BuildBlocks(m.db, m.ws)
	r.disks = make([]*spd.SPD, m.cfg.Disks)
	r.diskRes = make([]*sim.Resource, m.cfg.Disks)
	perDisk := make([][]spd.Block, m.cfg.Disks)
	for i, b := range r.allBlock {
		d := i % m.cfg.Disks
		nb := b
		nb.ID = spd.BlockID(len(perDisk[d]))
		perDisk[d] = append(perDisk[d], nb)
	}
	for d := range r.disks {
		r.disks[d] = spd.New(m.cfg.DiskGeometry, m.cfg.DiskMode, m.cfg.CacheTracksPerSP)
		if err := r.disks[d].Store(perDisk[d]); err != nil {
			// Capacity was validated in New; a failure here is a bug.
			panic(err)
		}
		r.diskRes[d] = sim.NewResource(&r.s, fmt.Sprintf("spd%d", d))
	}

	r.procs = make([]*proc, m.cfg.Processors)
	for p := range r.procs {
		r.procs[p] = &proc{
			id:     p,
			memory: make(map[kb.ClauseID]bool),
		}
	}
	root := r.exp.Root(goals)
	r.outstanding = 1
	r.netPool.Push(root)
	r.curD = m.cfg.D
	return r
}

// adaptD implements the run-time D controller: every 32 network
// transfers, compare the window's blocked ratio against thresholds and
// double or halve D within [1/4, 1024].
func (r *run) adaptD() {
	if !r.cfg.AdaptiveD {
		return
	}
	const window = 32
	if r.banyan.Transfers-r.lastTransfers < window {
		return
	}
	blocked := r.banyan.Blocked - r.lastBlocked
	ratio := float64(blocked) / float64(r.banyan.Transfers-r.lastTransfers)
	r.lastTransfers = r.banyan.Transfers
	r.lastBlocked = r.banyan.Blocked
	switch {
	case ratio > 0.25 && r.curD < 1024:
		if r.curD == 0 {
			r.curD = 1
		} else {
			r.curD *= 2
		}
		r.rep.DAdjustments++
	case ratio < 0.05 && r.curD > 0.25:
		r.curD /= 2
		r.rep.DAdjustments++
	}
}

func (r *run) run() (*Report, error) {
	// Start every task idle: they race for the root through the network,
	// which is the paper's breadth-first fill.
	for _, p := range r.procs {
		for t := 0; t < r.cfg.TasksPerProcessor; t++ {
			p := p
			r.s.At(0, func() { r.taskLoop(p) })
		}
	}
	r.rep.Cycles = r.s.Run(0)
	r.rep.ProcBusy = make([]sim.Time, len(r.procs))
	r.rep.ProcUtil = make([]float64, len(r.procs))
	for i, p := range r.procs {
		r.rep.ProcBusy[i] = p.busy
		if r.rep.Cycles > 0 {
			u := float64(p.busy) / float64(r.rep.Cycles) / float64(r.cfg.TasksPerProcessor)
			if u > 1 {
				u = 1
			}
			r.rep.ProcUtil[i] = u
		}
	}
	for _, d := range r.disks {
		r.rep.DiskStats = append(r.rep.DiskStats, d.Stats())
	}
	r.rep.NetTransfers = r.banyan.Transfers
	r.rep.NetBlocked = r.banyan.Blocked
	r.rep.DFinal = r.curD
	r.rep.Exhausted = r.outstanding == 0 && !r.stop
	if len(r.rep.Solutions) > 0 {
		r.rep.FirstSolution = r.rep.Solutions[0].At
	}
	return r.rep, r.rep.Err
}

// taskLoop is one task's scheduler step: acquire a chain per the D rule,
// process it, repeat. All state is single-threaded inside the simulator.
func (r *run) taskLoop(p *proc) {
	if r.stop {
		return
	}
	var localMin, netMin *engine.Node
	if len(p.local) > 0 {
		localMin = p.local[0]
	}
	if len(r.netPool) > 0 {
		netMin = r.netPool[0]
	}

	switch {
	case localMin != nil && (netMin == nil || netMin.Bound > localMin.Bound-r.curD):
		n := p.local.Pop()
		r.process(p, n)
	case netMin != nil:
		// Acquire through the network: min-tree query + arbitration +
		// chain transfer proportional to its environment size.
		n := r.netPool.Pop()
		if localMin != nil {
			r.rep.Migrations++
		}
		lat := r.minTree.QueryLatency() + r.arbiter.GrantLatency()
		words := 8 + 2*n.Env.Depth()
		p.busy += lat
		r.banyan.Transfer(r.cfg.Processors+int(n.Seq)%r.cfg.Disks, p.id, words, func() {
			r.process(p, n)
		})
		r.adaptD()
	default:
		if r.outstanding == 0 {
			return // exhausted; all tasks drain out
		}
		// Idle: poll the network after one min-tree latency. Event-count
		// bounded by MaxExpansions via the simulator's own run budget.
		r.s.After(r.minTree.QueryLatency()+1, func() { r.taskLoop(p) })
	}
}

// process expands or finalizes one chain, charging all costs, then loops.
func (r *run) process(p *proc, n *engine.Node) {
	if r.stop {
		return
	}
	if n.IsSolution() {
		a := engine.Answer{Bound: n.Bound, Depth: n.Depth, Env: n.Env, Terms: r.qterms, Vars: r.qvars}
		if r.cfg.Learn {
			r.m.ws.RecordSuccess(n.Chain.Slice())
		}
		r.rep.Solutions = append(r.rep.Solutions, SolutionEvent{Solution: a.Solution(nil), At: r.s.Now(), Proc: p.id})
		r.outstanding--
		if r.cfg.MaxSolutions > 0 && len(r.rep.Solutions) >= r.cfg.MaxSolutions {
			r.stop = true
			return
		}
		r.s.After(1, func() { r.taskLoop(p) })
		return
	}
	if r.rep.Expanded >= r.cfg.MaxExpansions {
		if r.rep.Err == nil {
			r.rep.Err = errors.New("machine: expansion budget exhausted")
		}
		r.stop = true
		return
	}
	r.rep.Expanded++

	children, err := r.exp.Expand(n)
	if err != nil && err != engine.ErrDepthLimit {
		r.rep.Err = err
		r.stop = true
		return
	}

	// Page in the clause blocks the expansion touched but local memory
	// lacks. The children tell us which clauses matched; the search also
	// scanned candidates, which we approximate by the matched set.
	var missing []kb.ClauseID
	for _, c := range children {
		arc := c.Chain.Slice()
		cid := arc[len(arc)-1].Callee
		if !p.memory[cid] {
			missing = append(missing, cid)
			r.noteLocal(p, cid)
		}
	}
	searchCost := r.cfg.SearchCycles
	p.busy += searchCost

	finish := func() {
		if len(children) == 0 {
			r.rep.Failures++
			if r.cfg.Learn {
				r.m.ws.RecordFailure(n.Chain.Slice())
			}
			r.outstanding--
			cost := r.cfg.WeightCycles
			p.busy += cost
			r.s.After(searchCost+cost, func() { r.taskLoop(p) })
			return
		}
		// Copy + unify + weight per child.
		words := 8 + 2*n.Env.Depth()
		passes := len(children)
		if r.cfg.MultiWrite {
			passes = 1
		}
		cost := r.cfg.CopySetupCycles + sim.Time(passes)*sim.Time(words)*r.cfg.CopyPerWord +
			sim.Time(len(children))*(r.cfg.UnifyCycles+r.cfg.WeightCycles)
		p.busy += cost
		r.outstanding += len(children) - 1
		for _, c := range children {
			p.local.Push(c)
		}
		spilled := 0
		for len(p.local) > r.cfg.LocalCap {
			r.netPool.Push(popMax(&p.local))
			spilled++
		}
		// Keep starving peers fed: if the pool is empty and we hold more
		// than one chain, offer our worst one.
		if len(r.netPool) == 0 && len(p.local) > 1 {
			r.netPool.Push(popMax(&p.local))
			spilled++
		}
		r.rep.Spills += uint64(spilled)
		best := 0.0
		if len(p.local) > 0 {
			best = p.local[0].Bound
		}
		r.minTree.Set(p.id, best, len(p.local) > 0)
		r.s.After(searchCost+cost, func() { r.taskLoop(p) })
	}

	if len(missing) == 0 {
		finish()
		return
	}
	// Page the missing blocks in from their disks, serialized per disk.
	r.rep.PageIns += uint64(len(missing))
	remaining := len(missing)
	for _, cid := range missing {
		d := int(cid) % r.cfg.Disks
		localID := spd.BlockID(int(cid) / r.cfg.Disks)
		disk := r.disks[d]
		// Measure the SPD's own cost for this page-in.
		before := disk.Elapsed()
		_, _ = disk.PageSubgraph([]spd.BlockID{localID}, r.cfg.PageDistance)
		cost := disk.Elapsed() - before
		r.rep.PageInCycles += cost
		r.diskRes[d].Acquire(cost, func() {
			remaining--
			if remaining == 0 {
				finish()
			}
		})
	}
}

// noteLocal inserts a block into processor memory with LRU eviction.
func (r *run) noteLocal(p *proc, cid kb.ClauseID) {
	if p.memory[cid] {
		return
	}
	p.memory[cid] = true
	p.lru = append(p.lru, cid)
	if len(p.lru) > r.cfg.LocalBlocks {
		evict := p.lru[0]
		p.lru = p.lru[1:]
		delete(p.memory, evict)
	}
}

// popMax removes the worst chain from h, the one a task sheds to the
// network first.
func popMax(h *engine.NodeHeap) *engine.Node {
	worst := 0
	for i := 1; i < len(*h); i++ {
		if h.Less(worst, i) {
			worst = i
		}
	}
	return h.Remove(worst)
}
