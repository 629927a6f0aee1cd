//go:build !race

package core

// See the race variant: allocation gates run on native builds only.
const raceDetector = false
