package term

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Sym is an interned symbol: a process-unique integer identifying a functor
// or atom name. Unification, clause indexing and builtin dispatch compare
// Syms — one integer compare — where a string-based representation would
// re-compare functor text on every step. The paper's machine gets the same
// effect from hardware name tags; interning is the software analogue.
//
// Sym values are only meaningful within one process and are never
// persisted; rendering goes back through the table via Name.
type Sym int32

// symTable is the process-wide intern table. The name slice is published
// through an atomic pointer so that Name (the render path) never takes a
// lock; Intern is a load-time / parse-time operation and may lock.
type symTable struct {
	mu    sync.RWMutex
	ids   map[string]Sym
	names atomic.Pointer[[]string]
}

var symbols = func() *symTable {
	t := &symTable{ids: map[string]Sym{"": 0}}
	names := []string{""} // Sym 0 is the empty atom ''
	t.names.Store(&names)
	return t
}()

// Intern returns the unique Sym for name, creating it on first use.
// Safe for concurrent use.
func Intern(name string) Sym {
	t := symbols
	t.mu.RLock()
	s, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.ids[name]; ok {
		return s
	}
	// The table keeps its own copy: name is often a slice of a larger
	// text, a program or a request body, which it must not pin.
	name = strings.Clone(name)
	old := *t.names.Load()
	s = Sym(len(old))
	// Appending may grow in place; readers only index below their own
	// slice header's length, so publishing the longer header afterwards
	// is race-free.
	names := append(old, name)
	t.names.Store(&names)
	t.ids[name] = s
	return s
}

// Name returns the interned text of s, or "" for an unknown Sym.
func (s Sym) Name() string {
	names := *symbols.names.Load()
	if s < 0 || int(s) >= len(names) {
		return ""
	}
	return names[s]
}

// String renders the raw (unquoted) name, so Syms format naturally with %s.
func (s Sym) String() string { return s.Name() }

// Well-known symbols, pre-interned so hot paths compare against constants.
var (
	// SymDot is the list cell functor `.`.
	SymDot = Intern(".")
	// SymNil is the empty list atom `[]`.
	SymNil = Intern("[]")
	// SymNeg is the negation-as-failure operator `\+`.
	SymNeg = Intern("\\+")
)
