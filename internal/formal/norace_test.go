//go:build !race

package formal

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
