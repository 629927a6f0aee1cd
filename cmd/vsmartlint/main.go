// Command vsmartlint runs the project's custom static-analysis suite
// over Go packages, _test.go files included: the machine-checked forms
// of the engine's framing, locking, hot-path timing, and durability
// invariants.
//
//	vsmartlint ./...   # what CI runs; exits 1 on any finding
//	vsmartlint -list   # print the analyzers and what they check
//
// The suite is four analyzers on the internal/lint framework, each
// checking an invariant that a refactor introduced and that go vet /
// staticcheck cannot see:
//
//   - framesafety: every durable byte flows through the one
//     internal/frame framing layer — no raw length prefixes, no second
//     checksum, no direct writes to snap-*/wal-* generation files.
//   - hotpathmetrics: latency accounting in the hot-path
//     packages (index/shard/wal) goes through internal/metrics — no
//     ad-hoc time.Now/time.Since stopwatches dodging the shared
//     histograms.
//   - lockscope: mutex-guarded shard and WAL state is only touched
//     under the lock, and exact similarity verification never runs
//     inside it.
//   - walerr: errors from the WAL, framing, and public mutation
//     paths — batched included — are never discarded,
//     append-before-apply durability.
//
// Findings print one per line as file:line:col: analyzer: message.
// Silence a deliberate exception with a comment on (or directly above)
// the flagged line:
//
//	//lint:vsmart-allow <analyzer> <reason>
//
// The reason is mandatory, and a suppression that no longer silences
// anything is itself reported — stale exceptions fail the build.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vsmartjoin/internal/lint"
	"vsmartjoin/internal/lint/framesafety"
	"vsmartjoin/internal/lint/hotpathmetrics"
	"vsmartjoin/internal/lint/lockscope"
	"vsmartjoin/internal/lint/walerr"
)

// analyzers is the full suite in reporting order.
var analyzers = []*lint.Analyzer{
	framesafety.Analyzer,
	hotpathmetrics.Analyzer,
	lockscope.Analyzer,
	walerr.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("vsmartlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", "", "run as if started in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vsmartlint: %v\n", err)
		return 2
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "vsmartlint: %v\n", err)
		return 2
	}
	wd, _ := os.Getwd()
	if *dir != "" {
		if abs, err := filepath.Abs(*dir); err == nil {
			wd = abs
		}
	}
	for _, f := range findings {
		// Relative paths keep output stable across checkouts.
		if rel, err := filepath.Rel(wd, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			f.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vsmartlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
