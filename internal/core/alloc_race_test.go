//go:build race

package core

// The race detector's instrumentation moves values to the heap that a
// native build keeps on the stack, so allocation counts taken under -race
// measure the detector, not the engine: the gates are skipped.
const raceDetector = true
