//go:build race

package malgraph

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
