package term

import "slices"

// This file implements the mutable half of the package's two binding
// representations. The immutable Env (env.go) serves BFS and best-first,
// where many open nodes extend a shared ancestor. Depth-first resolution —
// sequential, or one OR-parallel worker's segment — has one branch alive
// at a time, and WAM-family engines exploit that with a destructive
// binding store plus a trail that undoes bindings on backtrack. Store is
// that representation; engine.TrailRun drives it. Every binding on a
// store is written in place through its one Env node; alternatives (clause
// candidates, tabled answers, between/3 values) are tried one at a time
// under a choice point's trail mark, never staged side by side.

// trailEntry records one destructive binding so Undo can erase it: the
// frame written and the slot within it.
type trailEntry struct {
	frame *Frame
	slot  int32
}

// Store is a mutable, trail-disciplined binding store. Bindings are
// written in place into per-frame binding arrays (Frame.b); every write is
// logged on the trail, and Undo rewinds to a Mark in time proportional to
// the bindings made since — the O(bindings-since-mark) backtracking step.
//
// The store is driven through its distinguished Env (Env method): Bind on
// that node writes destructively and returns the same node, so the unifier
// and the bytecode machine run unchanged over either representation. A
// Store is single-goroutine; concurrent queries each own one.
type Store struct {
	trail []trailEntry
	env   *Env

	// binds and undos count destructive writes and trail rewinds over the
	// store's whole lifetime (Reset does not clear them). The profiler
	// samples them as deltas; an unconditional increment is cheaper on the
	// hot path than a branch on whether anyone is watching.
	binds uint64
	undos uint64
}

// NewStore returns an empty store with its distinguished environment.
func NewStore() *Store {
	s := &Store{}
	s.env = &Env{st: s}
	return s
}

// Env returns the distinguished environment backed by the store. Bind on
// it mutates the store; Lookup reads the frame binding arrays.
func (s *Store) Env() *Env { return s.env }

// Reset empties the store for reuse by a new run, keeping the trail's
// capacity. The caller owns the consequences: any frame the old trail
// still pointed to must be dead (a finished run's frames are — the pool's
// free list only holds undone frames, and the rest die with the run).
func (s *Store) Reset() {
	tr := s.trail
	for i := range tr {
		tr[i] = trailEntry{}
	}
	s.trail = tr[:0]
	s.env.depth = 0
}

// Mark returns the current trail position, to pass to Undo.
func (s *Store) Mark() int { return len(s.trail) }

// Undo unbinds everything recorded since mark, most recent first, and
// truncates the trail back to it.
func (s *Store) Undo(mark int) {
	tr := s.trail
	for i := len(tr) - 1; i >= mark; i-- {
		e := tr[i]
		e.frame.b[e.slot] = nil
	}
	s.env.depth -= len(tr) - mark
	s.undos += uint64(len(tr) - mark)
	s.trail = tr[:mark]
}

// Counters returns the lifetime destructive-bind and undo counts, for
// profiler delta sampling.
func (s *Store) Counters() (binds, undos uint64) { return s.binds, s.undos }

// Hide clears every slot bound since mark, saving the values into buf
// (returned for reuse), so the store reads as it did at mark while the
// trail itself stays untouched; Unhide(mark, buf) writes them back.
// Anything bound in between must be undone before Unhide.
func (s *Store) Hide(mark int, buf []Term) []Term {
	buf = buf[:0]
	for _, e := range s.trail[mark:] {
		buf = append(buf, e.frame.b[e.slot])
		e.frame.b[e.slot] = nil
	}
	return buf
}

// Unhide restores the slots a Hide(mark, …) cleared, emptying buf.
func (s *Store) Unhide(mark int, buf []Term) {
	for i, e := range s.trail[mark : mark+len(buf)] {
		e.frame.b[e.slot], buf[i] = buf[i], nil
	}
}

// InPlace returns the store when e is its distinguished node — the one
// environment on which Bind is destructive — and nil for persistent
// environments. Code that tries a unification it may have to take back
// (unify.CanUnify) brackets it with Mark/Undo on the result.
func (e *Env) InPlace() *Store {
	if e != nil {
		return e.st
	}
	return nil
}

// FramePool and CompoundPool follow the trail's own rule, the one
// lifetime rule of everything a trail run takes: every Get is logged, a
// choice point takes a Mark, and Release(mark) returns everything taken
// since the mark to per-size free lists, after the store is undone to the
// choice point's trail mark. That is sound because an activation's frame
// and body structure die with the alternative that made them; what
// outlives backtracking (solution bindings, a table's call patterns and
// answers) leaves through Detacher, which copies pooled frames' variables
// and pooled compounds. A pool belongs to one trail run at a time, so
// pooling cannot leak terms across queries, and it is single-goroutine:
// its peak, the deepest its log grew in the run, is a plain int.

// Logged appends x to a pool's log or free list, doubling it when it is
// full: both grow with the run's depth, and doubling takes fewer arrays,
// and fewer bytes in all, than append's growth past 256 entries.
func Logged[T any](log []T, x T) []T {
	if len(log) == cap(log) {
		log = slices.Grow(log, max(len(log), 32))
	}
	return append(log, x)
}

// FramePool recycles activation frames, keyed by slot count. Get re-mints
// the variable identities (fresh serials, the caller's print names), so a
// recycled frame is indistinguishable from a newly allocated one.
type FramePool struct {
	free [][]*Frame // indexed by slot count
	log  []*Frame
	peak int
}

// Mark returns the current log position, to pass to Release.
func (p *FramePool) Mark() int { return len(p.log) }

// Get returns a frame with len(names) freshly minted variables, reusing a
// recycled frame of that size when one is available. Nil for no names,
// matching NewFrame.
func (p *FramePool) Get(names []string) *Frame {
	n := len(names)
	if n == 0 {
		return nil
	}
	var f *Frame
	if n < len(p.free) {
		if l := p.free[n]; len(l) > 0 {
			f = l[len(l)-1]
			l[len(l)-1] = nil
			p.free[n] = l[:len(l)-1]
			// Every binding into a released frame was undone before its
			// Release, so f.b is already all-nil and can be kept.
			f.mint(names)
		}
	}
	if f == nil {
		f = NewFrame(names)
		f.pooled = true
	}
	p.log = Logged(p.log, f)
	p.peak = max(p.peak, len(p.log))
	return f
}

// Release recycles every frame taken since mark and truncates the log
// back to it.
func (p *FramePool) Release(mark int) {
	lg := p.log
	for i := len(lg) - 1; i >= mark; i-- {
		f := lg[i]
		lg[i] = nil
		n := len(f.vars)
		for n >= len(p.free) {
			p.free = append(p.free, nil)
		}
		p.free[n] = Logged(p.free[n], f)
	}
	p.log = lg[:mark]
}

// RunReset ends one run's accounting: it returns the run's frame
// high-water mark and zeroes it. Callers fold the returned peak into the
// process-wide marks (RecordPoolHighWater).
func (p *FramePool) RunReset() int {
	peak := p.peak
	p.peak = 0
	return peak
}

// VarsOf returns the variables of ts in first-occurrence order, in a
// slice of their own.
func VarsOf(ts []Term) []*Var {
	var walk [8]*Var
	vs := walk[:0]
	for _, t := range ts {
		vs = VarsUnder(nil, t, vs)
	}
	return slices.Clone(vs)
}

// AppendVars appends the variables of f, nil for none, to dst.
func (f *Frame) AppendVars(dst []Term) []Term {
	for i := 0; f != nil && i < len(f.vars); i++ {
		dst = append(dst, &f.vars[i])
	}
	return dst
}

// Rename copies t with each variable vars[i] replaced by images[i] —
// every variable of t must be among vars — into compounds from p, so the
// copy is pooled like a clause activation's body. Trail runs lay their
// root goals out this way.
func (p *CompoundPool) Rename(t Term, vars []*Var, images []Term) Term {
	switch t := t.(type) {
	case *Var:
		return images[slices.Index(vars, t)]
	case *Compound:
		c := p.Get(t.Functor, len(t.Args))
		for i, a := range t.Args {
			c.Args[i] = p.Rename(a, vars, images)
		}
		return c
	}
	return t
}

// RefreshAll renames the variables of ts apart with one shared map, so
// variables shared across the slice stay shared. It returns the renamed
// terms and the original-to-fresh mapping. The tree-walking oracle
// activates a stored clause this way (kb.Clause.Activate).
func RefreshAll(ts []Term) ([]Term, map[*Var]*Var) {
	m := make(map[*Var]*Var, 8)
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = refresh(t, m)
	}
	return out, m
}

// Detacher copies terms out of a run, and is the one walker that does:
// solutions, a table's call patterns and answers, and the argument of \+
// all leave their run through it, while Exporter hands a chain to another
// worker's store. Terms are resolved against Env. A variable still
// unbound detaches as the variable Own named for it; failing that, one
// whose frame is pooled (pool-recycled or slab-carved) detaches as a fresh
// variable with the same print name, and any other as itself —
// consistently across one Detacher's lifetime. Pooled compounds are
// copied, others shared when unchanged. The result survives backtracking
// and frame and compound recycling, and pins no chunk of the run's slabs;
// on terms from the heap, Detach only resolves.
type Detacher struct {
	Env *Env
	// Cells, when set, is where copies are carved from (Cells.Compound);
	// nil copies into the heap.
	Cells *Cells
	ren   renaming
}

// renaming maps the variables a Detacher renames to their images. The
// first few pairs sit inline, so a small answer or call pattern renames
// without allocating.
type renaming struct {
	few  [4][2]*Var
	n    int
	more map[*Var]*Var
}

func (r *renaming) get(v *Var) (*Var, bool) {
	for _, p := range r.few[:r.n] {
		if p[0] == v {
			return p[1], true
		}
	}
	nv, ok := r.more[v]
	return nv, ok
}

// put maps v to nv, replacing any earlier image of v.
func (r *renaming) put(v, nv *Var) {
	for i := range r.few[:r.n] {
		if r.few[i][0] == v {
			r.few[i][1] = nv
			return
		}
	}
	if r.n < len(r.few) {
		r.few[r.n] = [2]*Var{v, nv}
		r.n++
		return
	}
	if r.more == nil {
		r.more = make(map[*Var]*Var, len(r.few))
	}
	r.more[v] = nv
}

// Own names q as what image stands for in the run: while image is an
// unbound variable it detaches as q itself, so a detached answer holds
// the query's own variables rather than the run's renamed copies, and a
// canonical table term its numbered placeholders.
func (d *Detacher) Own(image Term, q *Var) {
	v, ok := image.(*Var)
	if !ok || v == q {
		return
	}
	if _, bound := d.Env.Lookup(v); !bound {
		d.ren.put(v, q)
	}
}

// Detach copies t out of the run as described on the type.
func (d *Detacher) Detach(t Term) Term {
	switch t := d.Env.Resolve(t).(type) {
	case *Var:
		if nv, ok := d.ren.get(t); ok {
			return nv
		}
		if t.frame == nil || !t.frame.pooled {
			return t
		}
		nv := NewVar(t.Name)
		d.ren.put(t, nv)
		return nv
	case *Compound:
		return copyArgs(t, d.Cells, d.Detach)
	default:
		return t
	}
}

// copyArgs returns t with each argument a replaced by walk(a), sharing t
// when no argument changes unless t is pooled. The copy, from cells, is
// made at the first changed argument, or at once for a pooled t.
func copyArgs(t *Compound, cells *Cells, walk func(Term) Term) *Compound {
	var c *Compound
	if t.pooled {
		c = cells.Compound(t.Functor, len(t.Args))
	}
	for i, a := range t.Args {
		na := walk(a)
		if c == nil && na != a {
			c = cells.Compound(t.Functor, len(t.Args))
			copy(c.Args, t.Args[:i])
		}
		if c != nil {
			c.Args[i] = na
		}
	}
	if c == nil {
		return t
	}
	return c
}

// Exporter copies terms out of a store for another goroutine's store.
// Unlike Detacher it renames every variable still unbound, pool-minted or
// not, and copies every compound that holds a variable or is pool-minted,
// so no two stores ever write the same binding slot. Until the next Reset
// each variable and compound is copied once, keeping shared structure
// shared; fresh variables come in frames of exporterSlab that carry their
// binding array, and a copied compound is one Cells.Compound.
//
// With Cells set, the frames, their variables and their binding arrays
// are carved from it too, though another goroutine's store binds them:
// a slab hands each cell out once, so after the export only the store of
// the run that resumes the copy writes those arrays, and the holder trims
// its Cells only once every such run is over.
type Exporter struct {
	Cells *Cells
	env   *Env
	done  map[Term]Term
	slab  []Var
}

const exporterSlab = 8

// Reset starts a new export reading env; the renaming restarts and the
// next fresh variable comes from a new slab.
func (x *Exporter) Reset(env *Env) {
	x.env = env
	if x.done == nil {
		x.done = make(map[Term]Term, 16)
	}
	clear(x.done)
	x.slab = nil
}

// Copy exports t as described on the type.
func (x *Exporter) Copy(t Term) Term {
	t = x.env.Resolve(t)
	if c, ok := x.done[t]; ok {
		return c
	}
	switch t := t.(type) {
	case *Var:
		if len(x.slab) == 0 {
			x.slab = x.Cells.exportFrame()
		}
		nv := &x.slab[0]
		x.slab = x.slab[1:]
		nv.Name = t.Name
		x.done[t] = nv
		return nv
	case *Compound:
		c := copyArgs(t, x.Cells, x.Copy)
		if c != t {
			x.done[t] = c
		}
		return c
	default:
		return t
	}
}

// CompoundPool recycles the short-lived compounds of clause-body
// instantiation, the dominant allocation of the resolution hot path, by
// the rule FramePool states, keyed by arity.
type CompoundPool struct {
	free [][]*Compound // indexed by arity
	log  []*Compound
	peak int
}

// Mark returns the current log position, to pass to Release.
func (p *CompoundPool) Mark() int { return len(p.log) }

// Get returns a pooled compound with the given functor and arity. Args
// are not cleared: callers fill every slot, as with MakeCompound.
func (p *CompoundPool) Get(fn Sym, arity int) *Compound {
	var c *Compound
	if arity < len(p.free) {
		if l := p.free[arity]; len(l) > 0 {
			c = l[len(l)-1]
			l[len(l)-1] = nil
			p.free[arity] = l[:len(l)-1]
			c.Functor = fn
		}
	}
	if c == nil {
		c = MakeCompound(fn, arity)
		c.pooled = true
	}
	p.log = Logged(p.log, c)
	p.peak = max(p.peak, len(p.log))
	return c
}

// Release recycles every compound minted since mark and truncates the
// log back to it.
func (p *CompoundPool) Release(mark int) {
	lg := p.log
	for i := len(lg) - 1; i >= mark; i-- {
		c := lg[i]
		lg[i] = nil
		n := len(c.Args)
		for n >= len(p.free) {
			p.free = append(p.free, nil)
		}
		p.free[n] = Logged(p.free[n], c)
	}
	p.log = lg[:mark]
}

// RunReset returns the run's pooled-compound high-water mark and zeroes
// it; see FramePool.RunReset.
func (p *CompoundPool) RunReset() int {
	peak := p.peak
	p.peak = 0
	return peak
}

// MakeCompound allocates a compound of the given arity with its argument
// slice in the same allocation, for hot paths (body-goal instantiation)
// that build many short-lived compounds. Arguments start nil; the caller
// fills them.
func MakeCompound(fn Sym, arity int) *Compound {
	switch arity {
	case 1:
		s := &struct {
			c Compound
			a [1]Term
		}{}
		s.c = Compound{Functor: fn, Args: s.a[:]}
		return &s.c
	case 2:
		s := &struct {
			c Compound
			a [2]Term
		}{}
		s.c = Compound{Functor: fn, Args: s.a[:]}
		return &s.c
	case 3:
		s := &struct {
			c Compound
			a [3]Term
		}{}
		s.c = Compound{Functor: fn, Args: s.a[:]}
		return &s.c
	case 4:
		s := &struct {
			c Compound
			a [4]Term
		}{}
		s.c = Compound{Functor: fn, Args: s.a[:]}
		return &s.c
	default:
		return &Compound{Functor: fn, Args: make([]Term, arity)}
	}
}
