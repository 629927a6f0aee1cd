//go:build !race

package mr

// raceDetector reports a -race build, whose instrumentation allocates.
const raceDetector = false
