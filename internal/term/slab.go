package term

// Slab hands out cells of T carved from chunks: each cell once, never
// recycled. A chunk is ordinary Go memory, which the collector frees once
// nothing points into it, so whatever a cell is handed to may keep it as
// long as it likes; a chunk's untaken tail costs nothing but its memory.
// Within a run, chunks grow geometrically from slabFirst cells to
// slabFirst<<slabSteps, so a small run takes small chunks.
//
// One live cell keeps its chunk, dead neighbours and all, and a dead cell
// that points into an older chunk keeps that one too; in a search whose
// cells point back at their ancestors' (bindings, goal tails, arcs), a
// run's chunks keep each other. So a run takes at most slabChunks chunks
// from a slab, and past them the slab hands out heap cells one Take at a
// time, which the collector frees as the parent's search did: what a
// large search pins is bounded by its first chunks. A Slab is
// single-goroutine.
type Slab[T any] struct {
	chunk []T
	used  int
	grown int // chunks made since the last Trim
}

const (
	slabFirst = 32
	slabSteps = 5 // the largest chunk is slabFirst<<slabSteps cells
	// slabChunks is the most chunks a run takes: 8 160 cells.
	slabChunks = 16
	// slabKeep is the largest chunk whose tail Trim carries over.
	slabKeep = 256
)

// Take returns n fresh zero cells as a slice of length and capacity n.
func (s *Slab[T]) Take(n int) []T {
	if s.used+n > len(s.chunk) {
		if s.grown == slabChunks {
			s.chunk, s.used = nil, 0
			return make([]T, n)
		}
		size := slabFirst << min(s.grown, slabSteps)
		s.chunk, s.used = make([]T, max(size, n)), 0
		s.grown++
	}
	c := s.chunk[s.used : s.used+n : s.used+n]
	s.used += n
	return c
}

// New returns one fresh zero cell.
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }

// Back gives the last n cells of the latest Take back to the slab. The
// caller has not written them, and clips its slice to the cells it keeps.
// Cells taken from the heap are not given back.
func (s *Slab[T]) Back(n int) {
	if s.chunk != nil {
		s.used -= n
	}
}

// Trim ends a run on the slab. The tail of a chunk of at most slabKeep
// cells carries over to the next run; a larger chunk is dropped, so a run
// that follows a large search does not hold that search's chunk, and the
// next chunk starts small again.
func (s *Slab[T]) Trim() {
	s.grown = 0
	if len(s.chunk) > slabKeep {
		s.chunk, s.used = nil, 0
	}
}

// Cells is an allocator of Env spine cells, activation frames, compounds
// and term slices, each from a Slab, for one goroutine at a time. Its
// holders: the Env frontier's scratch (engine.Expander), for a run's
// environments, frames and compounds; an OR-parallel worker (par), for
// the answers it detaches, fresh per run; a trail run's chain slab
// (engine), for the compounds, variable frames and images of the chains
// it exports (Exporter says who binds those frames); and a search.Result
// and a collecting solve.Response, for their detached solutions. Every
// environment that extends Root binds from the same Cells, so only the
// run's goroutine may bind on them, and only until the run trims its
// Cells; reading them (Lookup, Resolve, Detacher) stays valid forever.
//
// Its frames and compounds are marked pooled, like a pool's: a single
// cell that outlived its holder's use would keep its whole chunk, and
// through it the chunks its neighbours point into, so Detacher copies
// them on the way out. The nil Cells allocates from the heap.
type Cells struct {
	envs   Slab[Env]
	frames Slab[Frame]
	vars   Slab[Var]
	comps  Slab[Compound]
	args   Slab[Term]
}

// noBindings is the snapshot of the empty environment: a root carries it
// so lookups and snapshot merges stop there.
var noBindings = &snapshot{}

// Root returns an empty environment whose extensions take their spine
// cells from c.
func (c *Cells) Root() *Env {
	r := c.envs.New()
	*r = Env{born: varCounter.Load(), snap: noBindings, cells: c}
	return r
}

// env returns a fresh Env cell.
func (c *Cells) env() *Env {
	if c == nil {
		return new(Env)
	}
	return c.envs.New()
}

// Frame is NewFrame from the slabs.
func (c *Cells) Frame(names []string) *Frame {
	if c == nil || len(names) == 0 {
		return NewFrame(names)
	}
	f := c.frames.New()
	f.vars = c.vars.Take(len(names))
	f.mint(names)
	f.pooled = true
	return f
}

// Terms returns n nil terms, as make([]Term, n) does, from the slabs.
func (c *Cells) Terms(n int) []Term {
	if c == nil {
		return make([]Term, n)
	}
	return c.args.Take(n)
}

// exportFrame returns the variables of a fresh frame of exporterSlab
// slots, its binding array in place, for Exporter: marked pooled when
// carved from the slabs, from the heap for the nil Cells.
func (c *Cells) exportFrame() []Var {
	var f *Frame
	if c == nil {
		s := new(struct {
			f Frame
			v [exporterSlab]Var
			b [exporterSlab]Term
		})
		f, s.f.vars, s.f.b = &s.f, s.v[:], s.b[:]
	} else {
		f = c.frames.New()
		f.vars, f.b, f.pooled = c.vars.Take(exporterSlab), c.args.Take(exporterSlab), true
	}
	f.mint(noNames[:])
	return f.vars
}

// noNames are the print names an export frame is minted with; Exporter
// names each variable after the one it copies.
var noNames [exporterSlab]string

// Compound is MakeCompound from the slabs.
func (c *Cells) Compound(fn Sym, arity int) *Compound {
	if c == nil {
		return MakeCompound(fn, arity)
	}
	k := c.comps.New()
	k.Functor, k.Args, k.pooled = fn, c.args.Take(arity), true
	return k
}

// Trim ends the run on c (Slab.Trim).
func (c *Cells) Trim() {
	c.envs.Trim()
	c.frames.Trim()
	c.vars.Trim()
	c.comps.Trim()
	c.args.Trim()
}
