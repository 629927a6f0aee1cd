//go:build !race

package cluster

// See the race variant: allocation gates run on native builds only.
const raceDetector = false
