//go:build !race

package vsmartjoin

// See the race variant: allocation gates run on native builds only.
const raceDetector = false
