package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one JSON object a workload run prints as the last
// line of its standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// End-to-end metrics: what a user of the system sees. Every workload
// reports every one of them, measured with tracing off.
//
// An operation is one vsmartjoin.AllPairs call on batch_skew and one
// request (a query, or on cluster_mixed also an /add or a /remove) on
// the serving workloads.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var workloadNames = []string{"batch_skew", "index_query", "node_http", "cluster_mixed"}

// endToEndMetrics turns a window into the end-to-end metric set. The
// window was cut into slices (100 ms of a serving window, or one batch
// job), each digested on its own and corrected for the machine's speed
// at the time (see refProbe). ops_per_s is the mean of the slices'
// throughputs, that is the operations completed per second of the
// window at nominal machine speed. op_p50_ms is the median over the
// slices of their median latency: a median of many short slices shrugs
// off the stretches in which the machine stalled, where one median over
// the whole window would shift with how many such stretches the window
// happened to contain.
func endToEndMetrics(w *windowResult) map[string]metricValue {
	rates, p50s := make([]float64, len(w.slices)), make([]float64, len(w.slices))
	for i, s := range w.slices {
		rates[i], p50s[i] = s.opsPerS, s.p50Ms
	}
	return map[string]metricValue{
		"setup_s":     {median(w.setups), "s"},
		"ops_per_s":   {mean(rates), "1/s"},
		"op_p50_ms":   {median(p50s), "ms"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// tailLatencyMs is the median over the slices of their p99 latency. It
// is reported per layer and not end to end: on node_http, where a p99
// is a scheduling hiccup and not a slow code path, it moves by a
// quarter from run to run on an unchanged program, so no bound it could
// carry would tell a regression from the weather.
func tailLatencyMs(w *windowResult) float64 {
	p99s := make([]float64, len(w.slices))
	for i, s := range w.slices {
		p99s[i] = s.p99Ms
	}
	return median(p99s)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// environment describes the machine and runtime a result came from.
func environment() map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"gogc":       gogc,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func fmtValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
