package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// resultFile is the merged outcome of one or more runs: for every
// workload, every metric with the value each run measured. compare and
// calibrate work on these files.
type resultFile struct {
	Seed        int64                      `json:"seed"`
	WindowS     float64                    `json:"window_s"`
	Runs        int                        `json:"runs"`
	Environment map[string]string          `json:"environment"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]*metricRuns `json:"end_to_end"`
	PerLayer  map[string]*metricRuns `json:"per_layer,omitempty"`
}

// metricRuns is one metric's value in each run, in run order.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (m *metricRuns) median() float64 { return median(m.Values) }

// runOptions are the flags run and calibrate share.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	spec    string
	out     string
}

func (o *runOptions) register(fs *flag.FlagSet) {
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of each measured window (default: run_seconds of BENCHMARK.json)")
	fs.BoolVar(&o.quick, "quick", false, "tiny corpus and short warm-up, for tests")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
}

// loadChecked reads BENCHMARK.json, refuses to go on if it names other
// workloads or metrics than the benchmark emits, and fills in the
// default window length.
func (o *runOptions) loadChecked() (*spec, error) {
	sp, err := loadSpec(o.spec)
	if err != nil {
		return nil, err
	}
	if err := sp.checkNames(); err != nil {
		return nil, err
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	return sp, nil
}

// cmdRun runs every workload, each in a child process of its own:
// first with tracing off for the end-to-end metrics, then (unless
// -trace=false) a traced run for the per-layer metrics. Everything is
// merged into one result file and printed by name with its unit.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var o runOptions
	o.register(fs)
	fs.BoolVar(&o.trace, "trace", true, "also make the traced run that yields the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(outDir, "result.json"), "where to write the merged result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := o.loadChecked(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	res := newResultFile(o)
	ok, err := runAll(o, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := writeJSON(o.out, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	printResult(os.Stdout, res)
	fmt.Printf("\nresult written to %s\n", o.out)
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: at least one workload gave a wrong answer or failed an operation")
		return 1
	}
	return 0
}

func newResultFile(o runOptions) *resultFile {
	return &resultFile{
		Seed:        o.seed,
		WindowS:     o.seconds,
		Environment: environment(),
		Workloads:   make(map[string]*workloadResult),
	}
}

// runAll appends one run of every workload to res and reports whether
// every operation succeeded with the right answer.
func runAll(o runOptions, res *resultFile) (ok bool, err error) {
	ok = true
	for _, w := range workloadNames {
		wr := res.Workloads[w]
		if wr == nil {
			wr = &workloadResult{Correct: true, EndToEnd: map[string]*metricRuns{}}
			res.Workloads[w] = wr
		}
		for _, traced := range []bool{false, true} {
			if traced && !o.trace {
				continue
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s, seed %d, tracing %v\n", w, o.seed, traced)
			dr, err := runChild(o, w, traced)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w, err)
			}
			wr.Correct = wr.Correct && dr.Correct
			wr.Attempted += dr.Attempted
			wr.Failed += dr.Failed
			ok = ok && dr.Correct && dr.Failed == 0
			into := wr.EndToEnd
			if traced {
				if wr.PerLayer == nil {
					wr.PerLayer = map[string]*metricRuns{}
				}
				into = wr.PerLayer
			}
			for name, mv := range dr.Metrics {
				if into[name] == nil {
					into[name] = &metricRuns{Unit: mv.Unit}
				}
				into[name].Values = append(into[name].Values, mv.Value)
			}
		}
	}
	res.Runs++
	return ok, nil
}

// runChild runs one workload in a child process of this same binary,
// handing it the seed, and parses the result object off the last line
// of its standard output. The child's stderr passes through.
func runChild(o runOptions, workload string, traced bool) (*driverResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", trace,
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var dr driverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dr); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &dr, nil
}

// printResult lists every metric of every workload by name with its
// unit: the median over the file's runs, and the run-to-run spread
// (interquartile range over median) once there are at least two.
func printResult(w io.Writer, res *resultFile) {
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr == nil {
			continue
		}
		verdict := "correct"
		if !wr.Correct || wr.Failed > 0 {
			verdict = "WRONG"
		}
		fmt.Fprintf(w, "\n%s: %s, %d operations attempted, %d failed (fail ratio %.3g)\n",
			name, verdict, wr.Attempted, wr.Failed, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		for _, group := range []map[string]*metricRuns{wr.EndToEnd, wr.PerLayer} {
			names := make([]string, 0, len(group))
			for n := range group {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				m := group[n]
				line := fmt.Sprintf("  %-34s %14s %-6s", n, fmtValue(m.median()), m.Unit)
				if len(m.Values) > 1 {
					line += fmt.Sprintf("  spread %5.1f %%  n=%d", 100*quartileSpread(m.Values), len(m.Values))
				}
				fmt.Fprintln(w, strings.TrimRight(line, " "))
			}
		}
	}
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}
