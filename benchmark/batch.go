package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/core"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// runConfig is one workload run's shape.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	quick    bool
	// setups is how many times the set-up is repeated and timed; the
	// reported setup_s is the median.
	setups int
	// scratch is this run's private directory for index dirs, TSV files
	// and spill segments; the caller removes it.
	scratch string
	// probe measures the machine's speed beside everything that is timed.
	probe *refProbe
}

func (c runConfig) warmup() time.Duration {
	if c.quick {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// tally counts the operations attempted and failed, keeping the first
// few failures for the report.
type tally struct {
	attempted int64
	failed    int64
	errs      []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs[:min(len(o.errs), 5-len(t.errs))]...)
}

// windowResult is what one workload window produced, traced or not.
type windowResult struct {
	tally
	setups  []float64  // seconds, one per timed set-up
	slices  []slice    // the window, cut up; see endToEndMetrics
	samples []opSample // every successful operation, as measured
	// Boundary counts read from the system's own stats structs over the
	// window (serving workloads).
	cacheHits, cacheMisses int64
	shed                   int64
	hedges                 int64
	repairBacklog          int64
	spans                  []span
}

// The defaults vsmartjoin.AllPairs applies, which the traced mirror of
// its pipeline has to repeat.
const (
	defaultMachines      = 16
	defaultMemPerMachine = 1 << 30
)

// runBatch is the batch_skew workload: vsmartjoin.AllPairs, defaults
// throughout (online-aggregation, ruzicka, t = 0.5, 16 simulated
// machines, in-memory shuffle), back to back over one skewed trace.
// With a recorder, each job instead runs the same pipeline stage by
// stage through the layers' public functions, a span around each.
func runBatch(cfg runConfig, rec *recorder) (*windowResult, error) {
	res := &windowResult{}
	corp, err := generateCorpus(batchTraceConfig(cfg.seed, cfg.quick))
	if err != nil {
		return nil, err
	}
	tsv := filepath.Join(cfg.scratch, "trace.tsv")
	var data *vsmartjoin.Dataset
	for i := 0; i < cfg.setups; i++ {
		took, err := cfg.probe.timeCorrected(func() error {
			if err := corp.writeTSV(tsv); err != nil {
				return fmt.Errorf("write trace: %w", err)
			}
			d, _, err := vsmartjoin.ReadTraceFile(tsv)
			data = d
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set up trace: %w", err)
		}
		res.setups = append(res.setups, took)
	}
	want := newOracle(corp.ents).allPairs(vsmartjoin.DefaultThreshold)

	job := func() ([]vsmartjoin.Pair, time.Duration, error) {
		t0 := time.Now()
		r, err := vsmartjoin.AllPairs(data, vsmartjoin.Options{Threshold: -1})
		if err != nil {
			return nil, 0, err
		}
		return r.Pairs, time.Since(t0), nil
	}
	if rec != nil {
		sets, _ := corp.internedSets()
		seq := 0
		job = func() ([]vsmartjoin.Pair, time.Duration, error) {
			seq++
			return tracedAllPairs(rec, fmt.Sprintf("job-%d", seq), tsv, sets, corp.ents)
		}
	}

	warm := 2
	if cfg.quick {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		if _, _, err := job(); err != nil {
			return nil, fmt.Errorf("warm-up join: %w", err)
		}
	}
	rec.reset()
	runtime.GC()
	// A job outlasts many slices, so each job is a slice of its own,
	// corrected by the reference probes just before and just after it.
	start := time.Now()
	factor := cfg.probe.runAll()
	for time.Since(start) < cfg.window {
		pairs, d, err := job()
		before := factor
		factor = cfg.probe.runAll()
		res.attempted++
		if err == nil {
			if d := diffPairs(pairs, want); d != "" {
				err = errors.New(d)
			}
		}
		if err != nil {
			res.fail("join %d: %v", res.attempted, err)
			continue
		}
		ms := float64(d) / float64(time.Millisecond) / ((before + factor) / 2)
		res.slices = append(res.slices, slice{opsPerS: 1000 / ms, p50Ms: ms, p99Ms: ms})
		res.samples = append(res.samples, opSample{end: time.Since(start), lat: d})
	}
	if rec != nil {
		res.spans = rec.spans
	}
	if err := os.Remove(tsv); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedAllPairs repeats what vsmartjoin.AllPairs does, one public
// layer function at a time with a span around each: records.BuildInput,
// core.Join, then the ID→name resolution and sort AllPairs ends with.
// ReadTraceFile (the set-up stage) and a second records.DecodePairs
// (core.Join decodes once itself, inside its own span) are recorded as
// stages of their own outside the job span, so their cost is visible
// without being counted into the job, whose duration is returned.
func tracedAllPairs(rec *recorder, req, tsv string, sets []multiset.Multiset, ents []entity) ([]vsmartjoin.Pair, time.Duration, error) {
	t0 := time.Now()
	if _, _, err := vsmartjoin.ReadTraceFile(tsv); err != nil {
		return nil, 0, err
	}
	rec.record("read_trace", req+"-read", t0, time.Now())

	jobStart := time.Now()
	input := records.BuildInput("input", sets, 4*defaultMachines)
	t1 := time.Now()
	rec.record("build_input", req, jobStart, t1)
	joined, err := core.Join(mr.NewCluster(defaultMachines, defaultMemPerMachine), input, core.Config{
		Measure:   similarity.Ruzicka{},
		Threshold: vsmartjoin.DefaultThreshold,
		Algorithm: core.OnlineAggregation,
	})
	if err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	rec.record("core_join", req, t1, t2)
	out := resolvePairs(joined.Pairs, ents)
	jobEnd := time.Now()
	rec.record("resolve", req, t2, jobEnd)
	rec.record("job", req, jobStart, jobEnd)

	t3 := time.Now()
	if _, err := records.DecodePairs(joined.Output); err != nil {
		return nil, 0, err
	}
	rec.record("decode_pairs", req+"-decode", t3, time.Now())
	return out, jobEnd.Sub(jobStart), nil
}

// resolvePairs maps ID pairs back to names (ID i+1 is ents[i], as
// internedSets assigned them) in AllPairs' output order.
func resolvePairs(ids []records.Pair, ents []entity) []vsmartjoin.Pair {
	out := make([]vsmartjoin.Pair, 0, len(ids))
	for _, p := range ids {
		a, b := ents[p.A-1].name, ents[p.B-1].name
		if a > b {
			a, b = b, a
		}
		out = append(out, vsmartjoin.Pair{A: a, B: b, Similarity: p.Sim})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
