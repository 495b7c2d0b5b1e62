package engine

import (
	"errors"
	"fmt"
)

// Limit names one of the bounds a query can pass. Passing one ends the
// run with a LimitError: the ordinary end of a runaway chain in a
// branch-and-bound search, not a fault.
type Limit uint8

// The limits, indexing the limits table.
const (
	Expansions Limit = iota
	TableAnswers
	NegationExpansions
	BuiltinTerm
	NumLimits // the number of limits
)

// limits is the one table of query limits: each limit's name, which its
// LimitError, blogd's 422 body, its limit_stops_total series and its
// query_over_limit event carry, and its default bound. A run may set its
// own expansions (search.Options.MaxExpansions) and table_answers
// (table.Config.Budget) bound; Or turns an unset one into the default.
var limits = [NumLimits]struct {
	name  string
	bound uint64
}{
	// Arrivals at non-solution nodes in one query; stops cyclic programs.
	Expansions: {"expansions", 5_000_000},
	// Steps of one table production, generator arrivals plus answers
	// consumed over a dependency group's whole fixpoint.
	TableAnswers: {"table_answers", 2_000_000},
	// Arrivals in the nested proof of one \+ goal.
	NegationExpansions: {"negation_expansions", 100_000},
	// What one builtin call builds from a number in a goal POST /query may
	// send: functor/3's arguments, length/2's list, between/3's range. An
	// uncapped make([]term.Term, N) would be a remote out-of-memory.
	BuiltinTerm: {"builtin_term", 1_000_000},
}

func (l Limit) String() string { return limits[l].name }

// Default is l's bound in the limits table.
func (l Limit) Default() uint64 { return limits[l].bound }

// Or is the bound a run takes for l from its setting n: n, or l's default
// when n is 0. It is the one place an unset limit becomes its default.
func (l Limit) Or(n uint64) uint64 {
	if n == 0 {
		return l.Default()
	}
	return n
}

// ErrBudget matches every limit stop under errors.Is, whichever engine,
// table production or builtin reported it.
var ErrBudget = errors.New("search: expansion budget exhausted")

// LimitError ends a run that passed one of its limits at Bound.
type LimitError struct {
	Limit Limit
	Bound uint64
}

func (e LimitError) Error() string { return fmt.Sprintf("%s limit of %d exceeded", e.Limit, e.Bound) }

// Is makes every LimitError an ErrBudget.
func (e LimitError) Is(target error) bool { return target == ErrBudget }
