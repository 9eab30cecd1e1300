//go:build race

package core

// raceEnabled reports that the tests run under the race detector, which
// disables sync.Pool and so raises allocation counts.
const raceEnabled = true
