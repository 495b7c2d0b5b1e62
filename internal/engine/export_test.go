package engine

import "sync/atomic"

// CountVisits makes Split and Untried add the choice points they read to
// n, until the returned func puts back what was counted before.
func CountVisits(n *atomic.Uint64) (restore func()) {
	old := visits
	visits = n
	return func() { visits = old }
}
