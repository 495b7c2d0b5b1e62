// Package weights implements the B-LOG weighting scheme: the
// information-theoretic bound of section 4 of the paper and the practical
// weight-maintenance heuristic of section 5.
//
// Every arc k of the search space carries an (unnormalized) probability
// p(k) of taking part in a successful solution; its weight is
// W(k) = -log2 p(k) and the bound of a chain is the sum of its arc
// weights. All successful chains share one bound, failed chains have
// infinite bound, and the bound grows monotonically from root to leaf —
// the three requirements of a branch-and-bound formulation.
//
// The practical scheme fixes a constant N (the bound every successful
// chain is steered towards) and codes the two special states by value,
// exactly as the paper prescribes:
//
//	unknown  = N+1      (worse than any freshly known solution)
//	infinity = A*N      (A = longest chain the machine accepts)
//
// On a failed chain, the unknown weight nearest the leaf becomes infinite.
// On a successful chain with known-weight sum M and k unknown-or-infinite
// arcs: if M > N the k arcs get 0, otherwise each gets (N-M)/k, making the
// chain's bound exactly N.
package weights

import (
	"fmt"
	"sync"

	"blog/internal/kb"
)

// Kind classifies an arc weight.
type Kind uint8

const (
	// Unknown: never updated by a search; valued N+1.
	Unknown Kind = iota
	// Known: set by a successful search.
	Known
	// Infinite: set by a failed search; valued A*N.
	Infinite
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Unknown:
		return "unknown"
	case Known:
		return "known"
	case Infinite:
		return "infinite"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config fixes the constants of the section-5 coding.
type Config struct {
	// N is the bound successful chains are steered to. The paper sets it
	// arbitrarily; 16 keeps (N-M)/k divisions well away from rounding.
	N float64
	// A bounds the longest chain, so A*N codes infinity.
	A int
}

// DefaultConfig matches the defaults used throughout the experiments.
func DefaultConfig() Config { return Config{N: 16, A: 64} }

// Unknown returns the coded value of an unknown weight (N+1).
func (c Config) UnknownWeight() float64 { return c.N + 1 }

// InfiniteWeight returns the coded value of infinity (A*N).
func (c Config) InfiniteWeight() float64 { return float64(c.A) * c.N }

// Store is the read interface the search engine uses to compute bounds,
// plus the two update entry points of section 5. Implementations must be
// safe for concurrent use: parallel workers read weights while completed
// chains record results.
type Store interface {
	// Weight returns the bound increment for arc a under the coding above.
	Weight(a kb.Arc) float64
	// State returns the arc's kind and, for Known arcs, the learned value.
	State(a kb.Arc) (Kind, float64)
	// RecordSuccess applies the success rule to a root-to-leaf chain.
	// The chain is lent for the call — the engines pass a buffer they go
	// on rewriting — so an implementation must not retain the slice.
	RecordSuccess(chain []kb.Arc)
	// RecordFailure applies the failure rule to a root-to-leaf chain,
	// lent as for RecordSuccess.
	RecordFailure(chain []kb.Arc)
	// Config returns the coding constants.
	Config() Config
}

// Table is the global weight database of figure 4: a mutable map from arc
// to learned weight. The zero value is not usable; call NewTable.
type Table struct {
	cfg Config
	mu  sync.RWMutex
	m   map[kb.Arc]entry
}

type entry struct {
	w    float64
	kind Kind
}

// NewTable returns an empty weight table with the given coding constants.
func NewTable(cfg Config) *Table {
	return &Table{cfg: cfg, m: make(map[kb.Arc]entry)}
}

// Config implements Store.
func (t *Table) Config() Config { return t.cfg }

// Weight implements Store.
func (t *Table) Weight(a kb.Arc) float64 {
	t.mu.RLock()
	e, ok := t.m[a]
	t.mu.RUnlock()
	if !ok {
		return t.cfg.UnknownWeight()
	}
	switch e.kind {
	case Infinite:
		return t.cfg.InfiniteWeight()
	default:
		return e.w
	}
}

// State implements Store.
func (t *Table) State(a kb.Arc) (Kind, float64) {
	t.mu.RLock()
	e, ok := t.m[a]
	t.mu.RUnlock()
	if !ok {
		return Unknown, t.cfg.UnknownWeight()
	}
	return e.kind, e.w
}

// Set forces an arc to a known weight. It is used to seed experiments and
// by the session merge; searches themselves go through Record*.
func (t *Table) Set(a kb.Arc, w float64) {
	t.mu.Lock()
	t.m[a] = entry{w: w, kind: Known}
	t.mu.Unlock()
}

// SetInfinite forces an arc to the infinite state.
func (t *Table) SetInfinite(a kb.Arc) {
	t.mu.Lock()
	t.m[a] = entry{w: t.cfg.InfiniteWeight(), kind: Infinite}
	t.mu.Unlock()
}

// Forget removes any learned state for the arc, returning it to Unknown.
func (t *Table) Forget(a kb.Arc) {
	t.mu.Lock()
	delete(t.m, a)
	t.mu.Unlock()
}

// Len returns the number of arcs with learned (non-Unknown) state.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// Snapshot copies the learned entries for inspection and merging.
func (t *Table) Snapshot() map[kb.Arc]Learned {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[kb.Arc]Learned, len(t.m))
	for a, e := range t.m {
		out[a] = Learned{W: e.w, Kind: e.kind}
	}
	return out
}

// Learned is an exported (arc weight, kind) pair for snapshots and merges.
type Learned struct {
	W    float64
	Kind Kind
}

// RecordFailure implements the section-5 failure rule: if no arc of the
// chain is already infinite, the unknown arc nearest the leaf becomes
// infinite. When the chain has no unknown arc either (all known), the
// paper leaves the database alone — correcting known weights is deferred
// to session averaging.
func (t *Table) RecordFailure(chain []kb.Arc) {
	if len(chain) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range chain {
		if e, ok := t.m[a]; ok && e.kind == Infinite {
			return // already explains the failure
		}
	}
	// Nearest the leaf = scan from the end.
	for i := len(chain) - 1; i >= 0; i-- {
		a := chain[i]
		if e, ok := t.m[a]; !ok || e.kind == Unknown {
			t.m[a] = entry{w: t.cfg.InfiniteWeight(), kind: Infinite}
			return
		}
	}
}

// RecordSuccess implements the section-5 success rule. Unknown and
// infinite arcs of the chain are (re)set so the chain's bound becomes N:
// to 0 if the known weights already sum above N, else to (N-M)/k each.
func (t *Table) RecordSuccess(chain []kb.Arc) {
	if len(chain) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var m float64
	var open []kb.Arc
	seen := make(map[kb.Arc]bool, len(chain))
	for _, a := range chain {
		e, ok := t.m[a]
		if ok && e.kind == Known {
			m += e.w
			continue
		}
		if seen[a] {
			continue // an arc reused within one chain gets one share
		}
		seen[a] = true
		open = append(open, a)
	}
	if len(open) == 0 {
		return
	}
	w := 0.0
	if m < t.cfg.N {
		w = (t.cfg.N - m) / float64(len(open))
	}
	for _, a := range open {
		t.m[a] = entry{w: w, kind: Known}
	}
}

// Uniform is a Store with every weight equal to 1 and no learning. With a
// uniform store, best-first search degenerates to searching by chain
// length — the uninformed baseline of experiment E1.
type Uniform struct{ cfg Config }

// NewUniform returns a uniform store using cfg only for its coding values.
func NewUniform(cfg Config) *Uniform { return &Uniform{cfg: cfg} }

// Weight implements Store.
func (u *Uniform) Weight(kb.Arc) float64 { return 1 }

// State implements Store.
func (u *Uniform) State(kb.Arc) (Kind, float64) { return Known, 1 }

// RecordSuccess implements Store as a no-op.
func (u *Uniform) RecordSuccess([]kb.Arc) {}

// RecordFailure implements Store as a no-op.
func (u *Uniform) RecordFailure([]kb.Arc) {}

// Config implements Store.
func (u *Uniform) Config() Config { return u.cfg }

// ChainBound sums the store's weights along a chain — the bound B(n) of
// section 4.
func ChainBound(s Store, chain []kb.Arc) float64 {
	var b float64
	for _, a := range chain {
		b += s.Weight(a)
	}
	return b
}
