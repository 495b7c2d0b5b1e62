package engine

import "sync/atomic"

// CountVisits makes Split and Untried add the choice points they read to
// n, until the returned func puts back what was counted before.
func CountVisits(n *atomic.Uint64) (restore func()) {
	old := visits
	visits = n
	return func() { visits = old }
}

// ChoicePoints is how many choice points r holds.
func ChoicePoints(r *TrailRun) int { return len(r.cps) }

// FrameHighWater is the most activation frames r has held at once so far.
// It reads the scratch's per-run peak, zeroing it as Release would.
func FrameHighWater(r *TrailRun) int { return r.sh.pool.RunReset() }
