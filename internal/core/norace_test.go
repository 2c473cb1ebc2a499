//go:build !race

package core_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
