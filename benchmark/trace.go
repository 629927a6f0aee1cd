package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir is where trace files and merged results are written.
var outDir = filepath.Join("benchmark", "out")

// maxTraceSpans bounds the spans written to a trace file; the summary
// beside them always covers every span of the window.
const maxTraceSpans = 20000

// traceFile is the content of out/trace-<workload>.json.
type traceFile struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	WindowS     float64                `json:"window_s"`
	Environment map[string]string      `json:"environment"`
	Summary     map[string]spanSummary `json:"summary"`
	// EndToEndMedianNs is the median of the outermost span (the client
	// call, or the job); SelfSumNs adds up the self-time medians of the
	// span layers; ResidualNs is what is left between the two.
	EndToEndMedianNs float64 `json:"end_to_end_median_ns"`
	SelfSumNs        float64 `json:"self_sum_ns"`
	ResidualNs       float64 `json:"residual_ns"`
	// Latency is the traced window's operations by class, as measured
	// (no correction for machine speed): reads and, on cluster_mixed,
	// writes.
	Latency    map[string]latencyDigest `json:"latency"`
	Counts     map[string]float64       `json:"counts"`
	SpansTotal int                      `json:"spans_total"`
	Spans      []span                   `json:"spans"`
}

// latencyDigest is a class of operations in the form a latency should
// be quoted in: the sample count, the median, and the highest
// percentile that still has ten samples beyond it (none when the class
// has fewer than a hundred samples).
type latencyDigest struct {
	N        int     `json:"n"`
	MedianMs float64 `json:"median_ms"`
	TailP    float64 `json:"tail_percentile,omitempty"`
	TailMs   float64 `json:"tail_ms,omitempty"`
}

func digestLatencies(samples []opSample) map[string]latencyDigest {
	byClass := map[string][]time.Duration{}
	for _, s := range samples {
		name := "read"
		if s.class == classWrite {
			name = "write"
		}
		byClass[name] = append(byClass[name], s.lat)
	}
	out := make(map[string]latencyDigest, len(byClass))
	for name, ds := range byClass {
		ms := make([]float64, len(ds))
		for i, d := range ds {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		sort.Float64s(ms)
		d := latencyDigest{N: len(ms), MedianMs: sortedMedian(ms)}
		if p, ok := highestTail(len(ms)); ok {
			d.TailP, d.TailMs = p, percentile(ms, p)
		}
		out[name] = d
	}
	return out
}

// budgetSpans lists, outermost first, the spans whose self times make
// up one operation of a workload. The batch stages recorded beside the
// job (read_trace, decode_pairs) are not part of it.
func budgetSpans(workload string) []string {
	if workload == "batch_skew" {
		return []string{"job", "build_input", "core_join", "resolve"}
	}
	return []string{"client", "router", "node"}
}

// runTraced is the traced run of one workload: the window once with
// tracing off and once with the recorder on (their difference is the
// tracing overhead), then every layer timed on its own.
func runTraced(cfg runConfig, run func(runConfig, *recorder) (*windowResult, error)) (*driverResult, error) {
	cfg.setups = 1
	scratch := cfg.scratch
	window := func(name string, rec *recorder) (*windowResult, error) {
		cfg.scratch = filepath.Join(scratch, name)
		if err := os.Mkdir(cfg.scratch, 0o755); err != nil {
			return nil, err
		}
		return run(cfg, rec)
	}
	base, err := window("untraced", nil)
	if err != nil {
		return nil, err
	}
	report(cfg.workload, base)
	traced, err := window("traced", newRecorder())
	if err != nil {
		return nil, err
	}
	cfg.scratch = scratch
	report(cfg.workload, traced)
	if len(base.samples) == 0 || len(traced.samples) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v %v", base.errs, traced.errs)
	}

	m := make(map[string]float64, len(perLayer))
	resolveParents(traced.spans)
	summary := summarizeSpans(traced.spans)
	budget := budgetSpans(cfg.workload)
	root := summary[budget[0]]
	baseRate, tracedRate := endToEndMetrics(base)["ops_per_s"].Value, endToEndMetrics(traced)["ops_per_s"].Value
	m["trace.overhead_pct"] = 100 * (baseRate - tracedRate) / baseRate
	m["trace.op_p99_ms"] = tailLatencyMs(base)
	var selfSum float64
	for _, name := range budget {
		selfSum += summary[name].SelfMedian // zero for a layer the workload does not pass
	}
	m["trace.residual_pct"] = 100 * (root.MedianNs - selfSum) / root.MedianNs
	m["trace.spans"] = float64(len(traced.spans))
	if lookups := traced.cacheHits + traced.cacheMisses; lookups > 0 {
		m["api.cache_hit_ratio"] = float64(traced.cacheHits) / float64(lookups)
	}
	m["httpd.shed_ratio"] = float64(base.shed+traced.shed) / float64(base.attempted+traced.attempted)

	if err := batchLadder(cfg, m); err != nil {
		return nil, fmt.Errorf("batch ladder: %w", err)
	}
	if err := servingLadder(cfg, m); err != nil {
		return nil, fmt.Errorf("serving ladder: %w", err)
	}
	m["cluster.hedges_fired"] += float64(base.hedges + traced.hedges)
	m["cluster.repair_backlog"] += float64(base.repairBacklog + traced.repairBacklog)

	tf := traceFile{
		Workload:         cfg.workload,
		Seed:             cfg.seed,
		WindowS:          cfg.window.Seconds(),
		Environment:      environment(),
		Summary:          summary,
		EndToEndMedianNs: root.MedianNs,
		SelfSumNs:        selfSum,
		ResidualNs:       root.MedianNs - selfSum,
		Latency:          digestLatencies(traced.samples),
		Counts:           m,
		SpansTotal:       len(traced.spans),
		Spans:            traced.spans[:min(len(traced.spans), maxTraceSpans)],
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+cfg.workload+".json"), tf); err != nil {
		return nil, err
	}

	res := &driverResult{
		Correct:   base.failed+traced.failed == 0,
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metricValue{m[pl.name], pl.unit}
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
