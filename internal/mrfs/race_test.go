//go:build race

package mrfs

// raceDetector reports a -race build, whose instrumentation allocates.
const raceDetector = true
