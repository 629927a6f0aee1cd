//go:build !race

package index

// Native runs are cheap enough for a long soak; see the race variant
// for why -race runs a shorter schedule.
const churnRounds = 300

// Allocation gates run on native builds only: the detector's
// instrumentation allocates and makes sync.Pool drop entries.
const raceDetector = false
