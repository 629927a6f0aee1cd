//go:build !race

package shard

// See the race variant: the allocation gate runs on native builds only.
const raceDetector = false
