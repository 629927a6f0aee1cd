package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Verdicts of one compared (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of compare.
type comparison struct {
	workload, metric, unit string
	a, b                   float64
	// change is how much worse B's median is than A's, as a share of
	// A's, in the metric's own direction; negative when B is better.
	change  float64
	bound   float64
	spread  float64 // the wider of the two files' run-to-run spreads
	verdict string
}

// compareResults judges B against A on every (workload, end-to-end
// metric) pair: unresolved when the recorded run-to-run spread is wider
// than the bound, so that a difference of the bound's size cannot be
// told from noise; worse when B's median is worse than A's by more than
// the bound; ok otherwise.
func compareResults(sp *spec, a, b *resultFile) []comparison {
	var rows []comparison
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			continue
		}
		for _, em := range sp.EndToEnd {
			ma, mb := wa.EndToEnd[em.Name], wb.EndToEnd[em.Name]
			if ma == nil || mb == nil {
				continue
			}
			c := comparison{workload: w, metric: em.Name, unit: em.Unit, a: ma.median(), b: mb.median(), bound: em.Bound}
			if c.a != 0 {
				c.change = (c.b - c.a) / c.a
				if em.Better == "higher" {
					c.change = -c.change
				}
			}
			c.spread = max(quartileSpread(ma.Values), quartileSpread(mb.Values))
			switch {
			case c.spread > c.bound:
				c.verdict = verdictUnresolved
			case c.change > c.bound:
				c.verdict = verdictWorse
			default:
				c.verdict = verdictOK
			}
			rows = append(rows, c)
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-14s %-12s %12s %12s  %-30s %6s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B relative to A", "bound", "spread", "verdict")
	for _, c := range rows {
		ratio := "A is 0"
		if c.a != 0 {
			ratio = fmt.Sprintf("%.3f × A's %s %s", c.b/c.a, fmtValue(c.a), c.unit)
		}
		fmt.Fprintf(w, "%-14s %-12s %12s %12s  %-30s %5.0f%% %6.1f%%  %s\n",
			c.workload, c.metric, fmtValue(c.a), fmtValue(c.b), ratio, 100*c.bound, 100*c.spread, c.verdict)
	}
}

// cmdCompare prints one row per (workload, end-to-end metric) for two
// result files and exits non-zero when any row is worse.
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var files [2]*resultFile
	for i := range files {
		if files[i], err = readResultFile(fs.Arg(i)); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	rows := compareResults(sp, files[0], files[1])
	printComparison(os.Stdout, rows)
	for _, c := range rows {
		if c.verdict == verdictWorse {
			return 1
		}
	}
	return 0
}

// cmdCalibrate executes run several times back to back, each time with
// the next seed, and prints for every end-to-end metric the median, the
// run-to-run spread (interquartile range over median, as the driver
// computes it) and whether that spread stays below a third of the
// metric's bound. The Markdown it prints is what CALIBRATION.md
// records.
func cmdCalibrate(args []string) int {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	var o runOptions
	o.register(fs)
	runs := fs.Int("runs", 5, "how many runs to make")
	fs.BoolVar(&o.trace, "trace", false, "also make the traced run each time")
	fs.StringVar(&o.out, "out", filepath.Join(outDir, "calibration.json"), "where to write the merged result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := o.loadChecked()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	res := newResultFile(o)
	allOK := true
	for i := 0; i < *runs; i++ {
		ok, err := runAll(o, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		allOK = allOK && ok
		o.seed++
	}
	if err := writeJSON(o.out, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	printCalibration(os.Stdout, sp, res)
	if !allOK {
		fmt.Fprintln(os.Stderr, "benchmark: at least one workload gave a wrong answer or failed an operation")
		return 1
	}
	return 0
}

func printCalibration(w io.Writer, sp *spec, res *resultFile) {
	fmt.Fprintf(w, "%d runs, seeds %d to %d, %g s windows, %s, GOMAXPROCS %s on %s processors.\n\n",
		res.Runs, res.Seed, res.Seed+int64(res.Runs)-1, res.WindowS,
		res.Environment["go_version"], res.Environment["gomaxprocs"], res.Environment["nproc"])
	fmt.Fprintln(w, "| workload | metric | median | unit | spread | bound | bound / 3 | spread below bound / 3 |")
	fmt.Fprintln(w, "|---|---|---:|---|---:|---:|---:|---|")
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr == nil {
			continue
		}
		for _, em := range sp.EndToEnd {
			m := wr.EndToEnd[em.Name]
			if m == nil {
				continue
			}
			spread := quartileSpread(m.Values)
			holds := "yes"
			if spread > em.Bound/3 {
				holds = "NO"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %.1f %% | %.0f %% | %.1f %% | %s |\n",
				name, em.Name, fmtValue(m.median()), em.Unit, 100*spread, 100*em.Bound, 100*em.Bound/3, holds)
		}
	}
}
