//go:build !race

package parse

const raceEnabled = false
