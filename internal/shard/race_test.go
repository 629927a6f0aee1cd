//go:build race

package shard

// Allocation counts taken under -race measure the detector (its
// instrumentation moves values to the heap and makes sync.Pool drop
// entries): the allocation gate is skipped.
const raceDetector = true
