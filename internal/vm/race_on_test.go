//go:build race

package vm

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation changes allocation behavior; the
// allocation-regression guard skips itself then.
const raceEnabled = true
