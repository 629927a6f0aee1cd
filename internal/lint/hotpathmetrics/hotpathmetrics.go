// Package hotpathmetrics enforces PR 8's instrumentation discipline:
// inside the hot-path packages (internal/index, internal/shard,
// internal/wal) all latency accounting goes through internal/metrics —
// no ad-hoc time.Now/time.Since stopwatches.
//
// The rule exists because the sanctioned clock is part of the
// performance contract, not a style preference. metrics.Now returns an
// opaque Stamp and metrics.ObserveSince lands it in a fixed-bucket
// atomic histogram: zero allocations, no lock, and a grep-able seam
// every timing measurement shares. An ad-hoc time.Since feeding a
// log line or a bespoke counter dodges the histogram (so /metrics
// undercounts), invites accidental clock reads under a shard lock
// (the lockscope contract), and cannot be found when the next PR
// needs to move or merge the measurement. internal/metrics itself is
// the one place allowed to touch the raw clock.
//
// Test files are exempt: benchmarks and deadline-driven tests use the
// raw clock legitimately.
package hotpathmetrics

import (
	"go/ast"

	"vsmartjoin/internal/lint"
)

// Analyzer is the hotpathmetrics checker.
var Analyzer = &lint.Analyzer{
	Name: "hotpathmetrics",
	Doc:  "hot-path packages (index/shard/wal) must time through internal/metrics, not raw time.Now/time.Since",
	Run:  run,
}

// hotPkgs are the packages whose timing must flow through
// internal/metrics. The cluster router and httpd layers are not listed:
// they run off the query hot path and own request-scoped deadlines that
// legitimately read the raw clock.
var hotPkgs = map[string]bool{
	"vsmartjoin/internal/index": true,
	"vsmartjoin/internal/shard": true,
	"vsmartjoin/internal/wal":   true,
}

// banned are the raw-clock entry points an ad-hoc stopwatch starts
// from. time.Sub and friends operate on values these produce, so
// flagging the sources is enough.
var banned = map[string]string{
	"Now":   "metrics.Now",
	"Since": "metrics.ObserveSince",
}

func run(pass *lint.Pass) error {
	if !hotPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			want, hit := banned[fn.Name()]
			if !hit || !lint.PkgLevel(fn) || pass.InTestFile(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"ad-hoc time.%s in a hot-path package: instrument through %s so the measurement lands in the shared atomic histograms", fn.Name(), want)
			return true
		})
	}
	return nil
}
