// Package spd simulates the Semantic Paging Disk of section 6 of the
// B-LOG paper (Lipovski's CASSM lineage): one or more search processors
// (SPs), each owning one disk surface, with a per-SP RAM cache able to
// hold track images and logic that can
//
//  1. search the data in cached blocks associatively and mark them,
//  2. follow all pointers (or only pointers with specified names) from
//     marked blocks to other blocks and mark those, and
//  3. output, replace, insert and delete words in marked blocks.
//
// Applying (2) N times from a seed set yields every block within Hamming
// distance N — the "semantic page" the processors page into their local
// memories.
//
// The simulator is deterministic and cost-accounted: track loads pay seek
// plus rotational latency on the owning SP, cache operations pay a small
// per-block logic cost, and the two SP ganging modes of the paper are both
// modelled. In SIMD mode all SPs work the same cylinder in lockstep
// (pointers to other cylinders are saved until that cylinder is loaded);
// in MIMD mode each SP serves its own surface independently and the
// elapsed time of a sweep is the maximum busy time across SPs.
package spd

import (
	"fmt"
	"sort"

	"blog/internal/sim"
	"blog/internal/term"
	"blog/internal/unify"
)

// BlockID is a global block number, the paper's pointer representation.
type BlockID int

// Pointer is a named, weighted pointer as stored in figure 4's blocks.
type Pointer struct {
	Name   string
	Target BlockID
	Weight float64
}

// Block is one variable-length record: a Horn clause plus its pointers.
type Block struct {
	ID       BlockID
	Data     string
	Pointers []Pointer
	// Key is the term the associative comparand search matches against
	// (the clause head for database blocks); nil blocks never match a
	// comparand.
	Key term.Term
}

// Mode selects how multiple SPs cooperate.
type Mode int

const (
	// MIMD: SPs serve their own surfaces independently.
	MIMD Mode = iota
	// SIMD: all SPs work one cylinder at a time in lockstep.
	SIMD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == SIMD {
		return "simd"
	}
	return "mimd"
}

// Geometry fixes the disk shape and latency constants (in cycles).
type Geometry struct {
	Cylinders      int
	Surfaces       int // one SP per surface
	BlocksPerTrack int
	// SeekPerCylinder is the head-move cost per cylinder of distance.
	SeekPerCylinder sim.Time
	// RotationPerBlock is the transfer time of one block slot; loading a
	// track costs BlocksPerTrack of these (full revolution).
	RotationPerBlock sim.Time
	// CacheOp is the cost of one associative operation over one cached
	// block (mark test or pointer follow).
	CacheOp sim.Time
}

// DefaultGeometry models a small 1985-era drive: slow mechanics, fast
// associative cache logic.
func DefaultGeometry() Geometry {
	return Geometry{
		Cylinders:        64,
		Surfaces:         4,
		BlocksPerTrack:   16,
		SeekPerCylinder:  20,
		RotationPerBlock: 50,
		CacheOp:          1,
	}
}

// TrackCapacity returns blocks per cylinder across all surfaces.
func (g Geometry) cylinderCapacity() int { return g.Surfaces * g.BlocksPerTrack }

// Capacity returns the total block capacity.
func (g Geometry) Capacity() int { return g.Cylinders * g.cylinderCapacity() }

// address locates a block on the disk.
type address struct {
	cylinder int
	surface  int
	slot     int
}

// Stats counts simulator activity.
type Stats struct {
	TrackLoads   uint64
	CacheHits    uint64
	SeekCycles   sim.Time
	RotateCycles sim.Time
	CacheOps     uint64
	MarksSet     uint64
	BlocksRead   uint64
	Deferred     uint64 // cross-cylinder pointer transfers saved for later
}

// SPD is one semantic paging disk instance. It is not safe for concurrent
// use; the machine model serializes access per disk, as the hardware does.
type SPD struct {
	geo  Geometry
	mode Mode
	// cacheTracks is how many track images each SP's cache holds.
	cacheTracks int

	blocks []Block
	addr   []address
	// cached[s] holds the cylinders SP s currently caches, LRU first.
	cached [][]int

	marked map[BlockID]bool
	// spBusy accumulates each SP's busy time within the current sweep.
	spBusy []sim.Time
	// elapsed is the completed simulated time across sweeps.
	elapsed sim.Time
	stats   Stats
}

// New creates an SPD with the given geometry, ganging mode, and per-SP
// cache capacity in tracks (minimum 1).
func New(geo Geometry, mode Mode, cacheTracks int) *SPD {
	if cacheTracks < 1 {
		cacheTracks = 1
	}
	d := &SPD{
		geo:         geo,
		mode:        mode,
		cacheTracks: cacheTracks,
		cached:      make([][]int, geo.Surfaces),
		marked:      make(map[BlockID]bool),
		spBusy:      make([]sim.Time, geo.Surfaces),
	}
	return d
}

// Store places blocks on the disk in ID order: consecutive blocks fill a
// track, then the next surface, then the next cylinder, matching the
// paper's "number of blocks above it in the track" numbering. It replaces
// any previous contents.
func (d *SPD) Store(blocks []Block) error {
	if len(blocks) > d.geo.Capacity() {
		return fmt.Errorf("spd: %d blocks exceed capacity %d", len(blocks), d.geo.Capacity())
	}
	d.blocks = make([]Block, len(blocks))
	d.addr = make([]address, len(blocks))
	for i, b := range blocks {
		if int(b.ID) != i {
			return fmt.Errorf("spd: block %d has ID %d; IDs must be dense and ordered", i, b.ID)
		}
		d.blocks[i] = b
		slot := i % d.geo.BlocksPerTrack
		surface := (i / d.geo.BlocksPerTrack) % d.geo.Surfaces
		cyl := i / d.geo.cylinderCapacity()
		d.addr[i] = address{cylinder: cyl, surface: surface, slot: slot}
	}
	for s := range d.cached {
		d.cached[s] = nil
	}
	d.ClearMarks()
	return nil
}

// Len returns the number of stored blocks.
func (d *SPD) Len() int { return len(d.blocks) }

// Block returns a stored block by ID (zero Block if out of range).
func (d *SPD) Block(id BlockID) Block {
	if id < 0 || int(id) >= len(d.blocks) {
		return Block{}
	}
	return d.blocks[id]
}

// ClearMarks unmarks every block (free: marks are tag bits in the caches).
func (d *SPD) ClearMarks() { d.marked = make(map[BlockID]bool) }

// Marked returns the marked block IDs in ascending order.
func (d *SPD) Marked() []BlockID {
	out := make([]BlockID, 0, len(d.marked))
	for id := range d.marked {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsMarked reports whether a block is marked.
func (d *SPD) IsMarked(id BlockID) bool { return d.marked[id] }

// Stats returns a copy of the counters.
func (d *SPD) Stats() Stats { return d.stats }

// Elapsed returns total simulated cycles consumed so far.
func (d *SPD) Elapsed() sim.Time { return d.elapsed }

// loadTrack ensures SP s caches cylinder cyl, paying seek+rotation on a
// miss. Returns whether it was a hit.
func (d *SPD) loadTrack(s, cyl int) bool {
	cache := d.cached[s]
	for i, c := range cache {
		if c == cyl {
			// LRU refresh.
			copy(cache[i:], cache[i+1:])
			cache[len(cache)-1] = cyl
			d.stats.CacheHits++
			return true
		}
	}
	// Miss: seek from the SP's most recent cylinder, then one revolution.
	from := 0
	if len(cache) > 0 {
		from = cache[len(cache)-1]
	}
	dist := cyl - from
	if dist < 0 {
		dist = -dist
	}
	seek := sim.Time(dist) * d.geo.SeekPerCylinder
	rotate := sim.Time(d.geo.BlocksPerTrack) * d.geo.RotationPerBlock
	d.spBusy[s] += seek + rotate
	d.stats.SeekCycles += seek
	d.stats.RotateCycles += rotate
	d.stats.TrackLoads++
	if len(cache) >= d.cacheTracks {
		cache = cache[1:]
	}
	d.cached[s] = append(cache, cyl)
	return false
}

// finishSweep folds per-SP busy time into elapsed per the ganging mode and
// resets the per-sweep accumulators.
func (d *SPD) finishSweep() {
	var t sim.Time
	for s := range d.spBusy {
		if d.spBusy[s] > t {
			t = d.spBusy[s]
		}
		d.spBusy[s] = 0
	}
	d.elapsed += t
}

// chargeCacheOp charges one associative operation to SP s.
func (d *SPD) chargeCacheOp(s int) {
	d.spBusy[s] += d.geo.CacheOp
	d.stats.CacheOps++
}

// MarkBlocks marks the given blocks, loading their tracks. This is
// operation (1) for the common case where the comparand identifies blocks
// directly (the engine knows clause IDs).
func (d *SPD) MarkBlocks(ids []BlockID) {
	for _, id := range ids {
		if id < 0 || int(id) >= len(d.blocks) {
			continue
		}
		a := d.addr[id]
		d.loadTrack(a.surface, a.cylinder)
		d.chargeCacheOp(a.surface)
		if !d.marked[id] {
			d.marked[id] = true
			d.stats.MarksSet++
		}
	}
	d.finishSweep()
}

// MarkWhere performs a full associative sweep: every track is loaded once
// (in cylinder order) and pred is evaluated on every block; matches are
// marked. This is operation (1) with a content comparand.
func (d *SPD) MarkWhere(pred func(*Block) bool) {
	if len(d.blocks) == 0 {
		return
	}
	maxCyl := d.addr[len(d.blocks)-1].cylinder
	for cyl := 0; cyl <= maxCyl; cyl++ {
		for s := 0; s < d.geo.Surfaces; s++ {
			d.loadTrack(s, cyl)
		}
		if d.mode == SIMD {
			d.lockstep()
		}
	}
	for i := range d.blocks {
		b := &d.blocks[i]
		d.chargeCacheOp(d.addr[i].surface)
		if pred(b) && !d.marked[b.ID] {
			d.marked[b.ID] = true
			d.stats.MarksSet++
		}
	}
	d.finishSweep()
}

// MarkComparand performs the associative search of operation (1) with a
// term comparand: every block whose Key the pattern matches one-way
// (pattern variables may bind, block variables may not — the hardware
// compares against stored data) is marked. Like MarkWhere it sweeps the
// whole disk once; the comparand is broadcast to every SP's cache logic.
func (d *SPD) MarkComparand(pattern term.Term) {
	// Each block matches a fresh copy of the comparand, so bindings from
	// one block do not constrain the next.
	d.MarkWhere(func(b *Block) bool {
		if b.Key == nil {
			return false
		}
		_, ok := unify.Match(nil, term.Refresh(pattern), b.Key)
		return ok
	})
}

// lockstep equalizes SP busy time (SIMD gangs advance together).
func (d *SPD) lockstep() {
	var t sim.Time
	for _, b := range d.spBusy {
		if b > t {
			t = b
		}
	}
	for s := range d.spBusy {
		d.spBusy[s] = t
	}
}

// FollowMarked implements operation (2) applied `times` times: follow
// pointers (all, or only those named `name` when name != "") from marked
// blocks and mark the targets. Pointers into cylinders not currently
// cached are deferred and processed when their cylinder loads, exactly as
// the paper describes for SIMD cylinder mode; in MIMD mode each target's
// owning SP loads the track on demand.
func (d *SPD) FollowMarked(name string, times int) {
	frontier := d.Marked()
	for step := 0; step < times && len(frontier) > 0; step++ {
		var next []BlockID
		if d.mode == SIMD {
			next = d.followSIMD(frontier, name)
		} else {
			next = d.followMIMD(frontier, name)
		}
		frontier = next
	}
	d.finishSweep()
}

// followMIMD follows one pointer hop with independent SPs.
func (d *SPD) followMIMD(frontier []BlockID, name string) []BlockID {
	var next []BlockID
	for _, id := range frontier {
		src := d.addr[id]
		d.loadTrack(src.surface, src.cylinder)
		for _, p := range d.blocks[id].Pointers {
			if name != "" && p.Name != name {
				continue
			}
			d.chargeCacheOp(src.surface)
			tgt := p.Target
			if tgt < 0 || int(tgt) >= len(d.blocks) {
				continue
			}
			ta := d.addr[tgt]
			d.loadTrack(ta.surface, ta.cylinder)
			d.chargeCacheOp(ta.surface)
			if !d.marked[tgt] {
				d.marked[tgt] = true
				d.stats.MarksSet++
				next = append(next, tgt)
			}
		}
	}
	return next
}

// followSIMD follows one pointer hop in cylinder-lockstep mode: the gang
// visits each cylinder that holds frontier blocks once; pointer targets in
// other cylinders are queued ("the pointer is saved until the other
// cylinder is loaded into the cache").
func (d *SPD) followSIMD(frontier []BlockID, name string) []BlockID {
	// pending[c] holds pointers waiting for cylinder c.
	pending := make(map[int][]BlockID)
	for _, id := range frontier {
		pending[d.addr[id].cylinder] = append(pending[d.addr[id].cylinder], id)
	}
	var next []BlockID
	// sources marked true are frontier blocks whose pointers still need
	// following; targets are marks to apply.
	targets := make(map[int][]BlockID)
	processed := make(map[BlockID]bool)
	for len(pending) > 0 || len(targets) > 0 {
		cyl := pickCylinder(pending, targets)
		// Gang seek: every SP loads its track of this cylinder.
		for s := 0; s < d.geo.Surfaces; s++ {
			d.loadTrack(s, cyl)
		}
		d.lockstep()
		// Apply deferred target marks on this cylinder.
		for _, tgt := range targets[cyl] {
			d.chargeCacheOp(d.addr[tgt].surface)
			if !d.marked[tgt] {
				d.marked[tgt] = true
				d.stats.MarksSet++
				next = append(next, tgt)
			}
		}
		delete(targets, cyl)
		// Follow pointers of frontier blocks on this cylinder.
		for _, id := range pending[cyl] {
			if processed[id] {
				continue
			}
			processed[id] = true
			for _, p := range d.blocks[id].Pointers {
				if name != "" && p.Name != name {
					continue
				}
				d.chargeCacheOp(d.addr[id].surface)
				tgt := p.Target
				if tgt < 0 || int(tgt) >= len(d.blocks) {
					continue
				}
				tc := d.addr[tgt].cylinder
				if tc == cyl {
					d.chargeCacheOp(d.addr[tgt].surface)
					if !d.marked[tgt] {
						d.marked[tgt] = true
						d.stats.MarksSet++
						next = append(next, tgt)
					}
				} else {
					targets[tc] = append(targets[tc], tgt)
					d.stats.Deferred++
				}
			}
		}
		delete(pending, cyl)
		d.lockstep()
	}
	return next
}

// pickCylinder chooses the lowest cylinder with pending work, a simple
// elevator order that keeps the simulation deterministic.
func pickCylinder(a, b map[int][]BlockID) int {
	best := -1
	for c := range a {
		if best == -1 || c < best {
			best = c
		}
	}
	for c := range b {
		if best == -1 || c < best {
			best = c
		}
	}
	return best
}

// ReadMarked implements operation (3)'s output action: it returns the
// marked blocks, charging transfer cost per block.
func (d *SPD) ReadMarked() []Block {
	ids := d.Marked()
	out := make([]Block, 0, len(ids))
	for _, id := range ids {
		a := d.addr[id]
		d.loadTrack(a.surface, a.cylinder)
		d.spBusy[a.surface] += d.geo.RotationPerBlock // transfer out
		d.stats.BlocksRead++
		out = append(out, d.blocks[id])
	}
	d.finishSweep()
	return out
}

// UpdateWeight rewrites the weight word of one pointer in a marked block,
// operation (3)'s replace action. It fails silently when the block is not
// marked (hardware requires a mark to address the block).
func (d *SPD) UpdateWeight(id BlockID, ptrIndex int, w float64) bool {
	if !d.marked[id] || int(id) >= len(d.blocks) {
		return false
	}
	b := &d.blocks[id]
	if ptrIndex < 0 || ptrIndex >= len(b.Pointers) {
		return false
	}
	a := d.addr[id]
	d.loadTrack(a.surface, a.cylinder)
	d.chargeCacheOp(a.surface)
	b.Pointers[ptrIndex].Weight = w
	d.finishSweep()
	return true
}

// PageSubgraph is the semantic paging operation the processors use: mark
// the seed blocks, follow all pointers within the given Hamming distance,
// and read the subgraph out. It returns the blocks and the cycles the
// whole operation took.
func (d *SPD) PageSubgraph(seeds []BlockID, distance int) ([]Block, sim.Time) {
	before := d.elapsed
	d.ClearMarks()
	d.MarkBlocks(seeds)
	d.FollowMarked("", distance)
	blocks := d.ReadMarked()
	return blocks, d.elapsed - before
}
