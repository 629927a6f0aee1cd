//go:build race

package index

// The race detector multiplies every synchronization operation's cost by
// an order of magnitude; a schedule that takes seconds natively takes
// minutes under -race. Compactions fire roughly once per churn round
// (each round's removals mark more postings dead than stay live), so a
// handful of rounds still exercises slot recycling against concurrent
// queries — the full schedule adds soak time, not coverage.
const churnRounds = 20

// Allocation gates run on native builds only: the detector's
// instrumentation allocates and makes sync.Pool drop entries.
const raceDetector = true
