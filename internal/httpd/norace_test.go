//go:build !race

package httpd

// See the race variant: allocation gates run on native builds only.
const raceDetector = false
