//go:build !race

package sim_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
