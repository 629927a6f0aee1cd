// Package lint assembles the project's custom static-analysis suite:
// four analyzers, each machine-checking an invariant that a refactor
// introduced and that go vet / staticcheck cannot see.
//
//   - framesafety (PR 4): every durable byte flows through the one
//     internal/frame framing layer — no raw length prefixes, no second
//     checksum, no direct writes to snap-*/wal-* generation files.
//   - lockscope (PR 2): mutex-guarded index state is only touched under
//     the lock, and exact similarity verification never runs inside it —
//     the lock-free-read hot-path contract.
//   - walerr (PR 3): errors from the WAL, framing, and public mutation
//     paths — batched included — are never discarded,
//     append-before-apply durability.
//   - hotpathmetrics (PR 8): latency accounting in the hot-path
//     packages (index/shard/wal) goes through internal/metrics — no
//     ad-hoc time.Now/time.Since stopwatches dodging the shared
//     histograms.
//
// Run the suite with `go run ./cmd/vsmartlint ./...`. Deliberate
// exceptions carry a //lint:vsmart-allow <analyzer> <reason> comment on
// or directly above the flagged line; the driver errors on suppressions
// that no longer match anything, so exceptions cannot outlive the code
// that needed them.
package lint

import (
	"vsmartjoin/internal/lint/analysis"
	"vsmartjoin/internal/lint/framesafety"
	"vsmartjoin/internal/lint/hotpathmetrics"
	"vsmartjoin/internal/lint/lockscope"
	"vsmartjoin/internal/lint/walerr"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		framesafety.Analyzer,
		hotpathmetrics.Analyzer,
		lockscope.Analyzer,
		walerr.Analyzer,
	}
}
