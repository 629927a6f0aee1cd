//go:build race

package cluster

// The race detector's instrumentation moves values to the heap that a
// native build keeps on the stack (and makes sync.Pool drop entries), so
// allocation counts taken under -race measure the detector: the
// allocation gates are skipped.
const raceDetector = true
