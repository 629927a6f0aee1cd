// Command benchmark is the repository's one benchmark: four named
// workloads, each run in a process of its own, measured end to end with
// tracing off and layer by layer in a separate traced run, and checked
// against an oracle the benchmark computes itself. See README.md here
// and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (one run, one JSON line)
//	bash benchmark/run.sh run -seed N -out benchmark/out/result.json       (all workloads, merged)
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh calibrate -runs 5
//
// It is a module of its own (vsmartjoin/benchmark, replace vsmartjoin =>
// ../), built by run.sh; every path it takes is relative to the root of
// the checkout, which is where it is run from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		case "calibrate":
			return cmdCalibrate(args[1:])
		}
	}
	return cmdWorkload(args)
}

// cmdWorkload runs one workload once and prints the result object as
// the last line of standard output.
func cmdWorkload(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: batch_skew, index_query, node_http or cluster_mixed")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	quick := fs.Bool("quick", false, "tiny corpus and short warm-up, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		quick:    *quick,
	}
	res, err := runWorkload(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// scratchRoot is where every run keeps its temporary files: inside the
// working directory, never the system temp dir, so a run leaves nothing
// outside its checkout. TMPDIR is pointed at it too, because the
// MapReduce engine puts its shuffle-spill segments under os.TempDir.
var scratchRoot = ".bench_build/tmp"

func makeScratch() (string, error) {
	root, err := filepath.Abs(scratchRoot)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", err
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return "", err
	}
	return dir, nil
}

var workloads = map[string]func(runConfig, *recorder) (*windowResult, error){
	"batch_skew":    runBatch,
	"index_query":   runIndexQuery,
	"node_http":     runNodeHTTP,
	"cluster_mixed": runClusterMixed,
}

// setupRepeats is how often an untraced run repeats and times its
// set-up (setup_s is the median): often enough that each workload spends
// two to four seconds on it, the 0.1 s batch set-up most often.
var setupRepeats = map[string]int{"batch_skew": 15, "index_query": 9, "node_http": 9, "cluster_mixed": 5}

// runWorkload executes one workload run. Untraced, it times the set-up
// several times and measures one window. Traced, it measures an
// untraced and a traced window of the same length (their difference is
// the tracing overhead), then times every layer on its own.
func runWorkload(cfg runConfig, traced bool) (*driverResult, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	scratch, err := makeScratch()
	if err != nil {
		return nil, err
	}
	defer removeAll(scratch)
	// An interrupted run must not leave index directories behind either.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(interrupted)
		close(interrupted)
	}()
	go func() {
		if _, ok := <-interrupted; ok {
			removeAll(scratch)
			os.Exit(130)
		}
	}()
	cfg.scratch = scratch
	if cfg.probe == nil {
		cfg.probe = newRefProbe(numClients())
	}

	if !traced {
		cfg.setups = setupRepeats[cfg.workload]
		if cfg.quick {
			cfg.setups = 2
		}
		w, err := run(cfg, nil)
		if err != nil {
			return nil, err
		}
		report(cfg.workload, w)
		if len(w.samples) == 0 {
			return nil, fmt.Errorf("no operation succeeded: %v", w.errs)
		}
		return &driverResult{
			Correct:   w.failed == 0,
			Attempted: w.attempted,
			Failed:    w.failed,
			Metrics:   endToEndMetrics(w),
		}, nil
	}
	return runTraced(cfg, run)
}

// report prints what went wrong in a window, if anything, to stderr.
func report(workload string, w *windowResult) {
	for _, e := range w.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", workload, e)
	}
}
