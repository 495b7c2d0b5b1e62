package term

import "sync/atomic"

// varCounter issues process-unique variable serials. Renaming clauses apart
// must be race-free because parallel workers expand OR-branches concurrently.
var varCounter atomic.Uint64

// Frame is one activation record: the fresh variables minted together by a
// clause activation (or a single NewVar call), backed by one allocation.
// Variables carry their frame and slot index, which lets Env snapshots
// store one binding array per frame — shared unchanged between snapshots —
// instead of copying a flat map of every binding.
type Frame struct {
	vars []Var
	// b, when non-nil, holds the frame's destructive bindings in a trail
	// run's Store (slot i binds vars[i]); nil outside trail runs. It is
	// written only by the single goroutine driving the owning Store.
	b []Term
	// pooled marks frames minted by a FramePool, whose variables are
	// recycled at backtrack, or carved from a Cells slab, whose chunk a
	// kept variable would pin: anything escaping the activation must be
	// detached first (see Detacher).
	pooled bool
}

// Size returns the number of variable slots in the frame.
func (f *Frame) Size() int { return len(f.vars) }

// Var returns the variable at slot i.
func (f *Frame) Var(i int) *Var { return &f.vars[i] }

// NewVar allocates a fresh variable with the given print name, in a
// one-slot frame of its own.
func NewVar(name string) *Var {
	f := &Frame{vars: make([]Var, 1)}
	f.vars[0] = Var{Name: name, ID: varCounter.Add(1), frame: f}
	return &f.vars[0]
}

// NewFrame mints len(names) fresh variables sharing one activation frame.
// The variables are backed by a single allocation and receive consecutive
// serials, so the VM's activation of a compiled clause costs O(1)
// allocations regardless of how many variables the clause has. A nil frame
// is returned for an empty name list (ground activation).
func NewFrame(names []string) *Frame {
	if len(names) == 0 {
		return nil
	}
	f := &Frame{vars: make([]Var, len(names))}
	f.mint(names)
	return f
}

// mint (re)issues f's variables: consecutive fresh serials, names[i] as
// the print name of slot i.
func (f *Frame) mint(names []string) {
	base := varCounter.Add(uint64(len(f.vars))) - uint64(len(f.vars))
	for i := range f.vars {
		f.vars[i] = Var{Name: names[i], ID: base + uint64(i) + 1, frame: f, idx: int32(i)}
	}
}

// snapshotEvery controls how often an Env node carries a snapshot of all
// bindings below it. Lookups walk at most snapshotEvery-1 links before
// reaching a snapshot. Fresh-variable lookups never walk at all (the birth
// cutoff answers them in O(1)), so the window can be wider — trading a
// longer bounded walk for far fewer snapshot allocations — than it could
// be when every miss paid the full walk.
const snapshotEvery = 64

// snapshot indexes every binding reachable from its Env node. Frame-backed
// variables live in per-frame binding arrays keyed by frame identity; a
// frame untouched since the previous snapshot shares its array with it, so
// building a snapshot copies only the arrays of recently-bound frames plus
// a key map that is much smaller than the binding count.
type snapshot struct {
	frames map[*Frame][]Term
}

// Env is an immutable binding environment. The zero value (nil) is the
// empty environment. Bind returns a new Env sharing all previous bindings,
// so sibling OR-branches can extend a common ancestor independently.
type Env struct {
	parent *Env
	v      *Var
	t      Term
	depth  int
	// born is the variable serial high-water mark when this node was
	// created. A variable with a larger ID was minted after the node and
	// so cannot be bound here or in any ancestor — Lookup uses this to
	// answer fresh-variable misses without walking the spine.
	born uint64
	snap *snapshot
	// st, when non-nil, makes the node a destructive Store's own (store.go):
	// it binds in place. No other node carries a store.
	st *Store
	// cells, inherited from the Root it extends, supplies the spine cells
	// of its extensions; nil allocates them from the heap.
	cells *Cells
}

// Depth returns the number of bindings in the environment.
func (e *Env) Depth() int {
	if e == nil {
		return 0
	}
	return e.depth
}

// Bind returns a new environment with v bound to t. It must only be called
// for unbound v (the unifier guarantees this); rebinding would shadow
// rather than overwrite, breaking Depth-based accounting.
func (e *Env) Bind(v *Var, t Term) *Env {
	if e != nil && e.st != nil {
		// Destructive path: write the frame slot in place and log the
		// write on the trail. The same node is returned, so callers
		// threading environments through unification work unchanged.
		f := v.frame
		if f.b == nil {
			f.b = make([]Term, len(f.vars))
		}
		f.b[v.idx] = t
		e.st.trail = append(e.st.trail, trailEntry{frame: f, slot: v.idx})
		e.st.binds++
		e.depth++
		return e
	}
	var c *Cells
	if e != nil {
		c = e.cells
	}
	n := c.env()
	*n = Env{parent: e, v: v, t: t, depth: e.Depth() + 1, born: varCounter.Load(), cells: c}
	if n.depth%snapshotEvery == 0 {
		n.snap = n.buildSnapshot()
	}
	return n
}

// buildSnapshot merges the bindings since the previous snapshot into it,
// copying only the binding arrays of frames touched in that window.
func (n *Env) buildSnapshot() *snapshot {
	// Collect the spine nodes since the previous snapshot (at most
	// snapshotEvery of them).
	var recent [snapshotEvery]*Env
	cnt := 0
	var prev *snapshot
	for c := n; c != nil; c = c.parent {
		if c.snap != nil {
			prev = c.snap
			break
		}
		recent[cnt] = c
		cnt++
	}
	s := &snapshot{}
	if prev != nil {
		s.frames = make(map[*Frame][]Term, len(prev.frames)+8)
		for k, vals := range prev.frames {
			s.frames[k] = vals
		}
	} else {
		s.frames = make(map[*Frame][]Term, cnt)
	}
	// Frames whose arrays were already copied for this snapshot; each
	// window touches at most snapshotEvery frames, so a linear scan wins
	// over a map.
	var cloned [snapshotEvery]*Frame
	nCloned := 0
	for i := cnt - 1; i >= 0; i-- { // order is immaterial: one bind per var
		c := recent[i]
		v := c.v
		vals := s.frames[v.frame]
		fresh := false
		for j := 0; j < nCloned; j++ {
			if cloned[j] == v.frame {
				fresh = true
				break
			}
		}
		if !fresh {
			nv := make([]Term, len(v.frame.vars))
			copy(nv, vals)
			vals = nv
			s.frames[v.frame] = vals
			cloned[nCloned] = v.frame
			nCloned++
		}
		vals[v.idx] = c.t
	}
	return s
}

// Lookup returns the binding of v, if any. Fresh variables (minted after
// the newest binding) answer in O(1) via the birth cutoff; older variables
// walk at most snapshotEvery-1 spine links, then answer from the nearest
// snapshot's per-frame binding array.
func (e *Env) Lookup(v *Var) (Term, bool) {
	if e == nil {
		return nil, false
	}
	if e.st != nil {
		// Store mode: answer from the frame binding array. The birth cutoff
		// does not apply — destructive binds do not advance node identity.
		f := v.frame
		if f == nil || f.b == nil {
			return nil, false
		}
		t := f.b[v.idx]
		return t, t != nil
	}
	if v.ID > e.born {
		return nil, false
	}
	for c := e; c != nil; c = c.parent {
		if c.v == v {
			return c.t, true
		}
		if c.snap != nil {
			vals, ok := c.snap.frames[v.frame]
			if !ok {
				return nil, false
			}
			t := vals[v.idx]
			return t, t != nil
		}
	}
	return nil, false
}

// Resolve dereferences t through variable bindings until it reaches an
// unbound variable or a non-variable term. It does not descend into
// compound arguments; Detacher copies a term out whole.
func (e *Env) Resolve(t Term) Term {
	for {
		v, ok := t.(*Var)
		if !ok {
			return t
		}
		b, ok := e.Lookup(v)
		if !ok {
			return v
		}
		t = b
	}
}

// Format renders t with bindings from e applied.
func (e *Env) Format(t Term) string {
	var buf [64]byte
	return string(Append(buf[:0], t, e))
}

// Refresh returns t with every variable consistently replaced by a fresh
// one: the "renaming apart" operation outside the VM. A table answer is
// renamed apart this way before a store binds into it, and the
// tree-walking oracle activates a stored clause by refreshing its head
// and body together (RefreshAll, through kb.Clause.Activate). It is a
// one-shot map-based copy that rebuilds every compound, ground ones
// included.
func Refresh(t Term) Term {
	switch t.(type) {
	case *Var, *Compound:
		return refresh(t, make(map[*Var]*Var, 4))
	default:
		return t
	}
}

func refresh(t Term, m map[*Var]*Var) Term {
	switch t := t.(type) {
	case *Var:
		if nv, ok := m[t]; ok {
			return nv
		}
		nv := NewVar(t.Name)
		m[t] = nv
		return nv
	case *Compound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = refresh(a, m)
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}
