// Package experiments reproduces every figure of the paper's evaluation
// (§7) on the scaled synthetic workloads of internal/datagen. Each driver
// returns a Report whose body holds the tables and ASCII charts that
// correspond to one figure, printed by `go run ./cmd/experiments`.
//
// Simulated times are in scaled cluster-seconds: the datasets are ~1:2000
// of the paper's, and the cost-model coefficients are inflated by the same
// factor, so the relative shapes — who wins, by what factor, where curves
// flatten, what fails — are the reproduction targets, not absolute values.
package experiments

import (
	"fmt"
	"strings"

	"vsmartjoin/internal/core"
	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/graph"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
	"vsmartjoin/internal/stats"
	"vsmartjoin/internal/vcl"
)

const (
	// NumReducers fixes the task count across runs so cost profiles can be
	// re-evaluated at any machine count (tasks ≫ machines throughout the
	// 100–900 sweep).
	NumReducers = 1024
	// MemPerMachine is the scaled stand-in for the paper's 1 GB budget.
	MemPerMachine = 2 << 20
	// DefaultMachines matches the paper's Fig 4 setting.
	DefaultMachines = 500
	// Threshold used by the machine sweeps (Figs 5–6).
	SweepThreshold = 0.5
)

// CostModel returns the scaled coefficients calibrated against the
// paper's reported ratios (see the README's "The simulated cluster").
func CostModel() mr.CostModel {
	return mr.CostModel{
		JobStartup:      200, // start/stop dominates at high machine counts (§7.1)
		TaskOverhead:    0.01,
		CPUPerRecord:    1e-2, // scaled ≈2000× a realistic per-record cost
		IOPerByte:       1e-3,
		NetPerByte:      1e-3,
		SideLoadPerByte: 5e-4,
		MaxTaskSeconds:  90_000, // the scheduler kill (48 h, scaled)
	}
}

// Cluster builds the simulated cluster used by all experiments.
func Cluster(machines int) mr.ClusterConfig {
	return mr.ClusterConfig{
		Machines:              machines,
		MemPerMachine:         MemPerMachine,
		SupportsSecondaryKeys: true,
		Cost:                  CostModel(),
	}
}

// paperJoin runs V-SMART-Join as the paper configures it for every figure:
// Ruzicka at threshold t over NumReducers reduce tasks, with the paper's
// unpruned Similarity1, so the simulated times are those of the
// algorithms the figures reproduce.
func paperJoin(cluster mr.ClusterConfig, input *mrfs.Dataset, t float64, alg core.Algorithm) (*core.Result, error) {
	return core.Join(cluster, input, core.Config{
		Measure: similarity.Ruzicka{}, Threshold: t, Algorithm: alg, NumReducers: NumReducers,
		NoLengthFilter: true,
	})
}

// Env caches the generated traces and their raw-tuple datasets across
// figure drivers.
type Env struct {
	small, realistic       *datagen.Trace
	smallIn, realisticIn   *mrfs.Dataset
	smallCfg, realisticCfg datagen.TraceConfig
}

// NewEnv returns an empty environment with the standard scaled configs.
func NewEnv() *Env {
	return &Env{smallCfg: datagen.SmallConfig(), realisticCfg: datagen.RealisticConfig()}
}

// NewTinyEnv returns an environment whose "small" and "realistic" traces
// are both tiny — used by benchmarks and smoke tests.
func NewTinyEnv() *Env {
	tiny := datagen.TinyConfig()
	big := tiny
	big.Seed++
	big.NumBackground *= 4
	big.NumProxies *= 2
	return &Env{smallCfg: tiny, realisticCfg: big}
}

// Small returns the small trace, generating it on first use.
func (e *Env) Small() (*datagen.Trace, *mrfs.Dataset, error) {
	if e.small == nil {
		tr, err := datagen.Generate(e.smallCfg)
		if err != nil {
			return nil, nil, err
		}
		e.small = tr
		e.smallIn = records.BuildInput("small", tr.Multisets, NumReducers)
	}
	return e.small, e.smallIn, nil
}

// Realistic returns the realistic trace, generating it on first use.
func (e *Env) Realistic() (*datagen.Trace, *mrfs.Dataset, error) {
	if e.realistic == nil {
		tr, err := datagen.Generate(e.realisticCfg)
		if err != nil {
			return nil, nil, err
		}
		e.realistic = tr
		e.realisticIn = records.BuildInput("realistic", tr.Multisets, NumReducers)
	}
	return e.realistic, e.realisticIn, nil
}

// Report is one reproduced figure.
type Report struct {
	ID    string
	Title string
	Body  string
}

func (r Report) String() string {
	line := strings.Repeat("=", len(r.ID)+len(r.Title)+3)
	return fmt.Sprintf("%s\n%s: %s\n%s\n%s", line, r.ID, r.Title, line, r.Body)
}

// evalTotal re-evaluates a pipeline's simulated total at machine count w.
func evalTotal(ps mr.PipelineStats, w int) float64 {
	cm := CostModel()
	var total float64
	for _, j := range ps.Jobs {
		total += j.Profile.Evaluate(w, cm).Total
	}
	return total
}

// traceStats summarizes a trace for the Fig 2–3 histograms.
func traceStats(tr *datagen.Trace) (perMultiset, perElement *stats.LogHistogram, tuples int64) {
	perMultiset = stats.NewLogHistogram()
	perElement = stats.NewLogHistogram()
	freq := make(map[uint64]int64)
	for _, m := range tr.Multisets {
		perMultiset.Add(int64(m.UnderlyingCardinality()))
		tuples += int64(m.UnderlyingCardinality())
		for _, e := range m.Entries {
			freq[uint64(e.Elem)]++
		}
	}
	for _, f := range freq {
		perElement.Add(f)
	}
	return perMultiset, perElement, tuples
}

// Fig2and3 reproduces the dataset-distribution figures: the number of
// elements per multiset (Fig 2) and multisets per element (Fig 3), for
// both scaled datasets.
func Fig2and3(env *Env) (Report, error) {
	var body strings.Builder
	for _, which := range []string{"small", "realistic"} {
		var tr *datagen.Trace
		var err error
		if which == "small" {
			tr, _, err = env.Small()
		} else {
			tr, _, err = env.Realistic()
		}
		if err != nil {
			return Report{}, err
		}
		perM, perE, tuples := traceStats(tr)
		fmt.Fprintf(&body, "--- %s dataset: %d multisets (IPs), %d elements (cookies), %d tuples ---\n",
			which, len(tr.Multisets), tr.NumElements, tuples)
		body.WriteString("Fig 2 — elements per multiset |U(Mi)| (log2 bins):\n")
		body.WriteString(perM.String())
		body.WriteString("Fig 3 — multisets per element Freq(ak) (log2 bins):\n")
		body.WriteString(perE.String())
		body.WriteString("\n")
	}
	body.WriteString("Paper: both distributions are heavily skewed; most entities are small\n" +
		"with a heavy tail of huge ones. The histograms above show the same shape.\n")
	return Report{ID: "fig2-3", Title: "Dataset distributions", Body: body.String()}, nil
}

// Fig4Row is one measurement of the threshold sweep.
type Fig4Row struct {
	Threshold float64
	Seconds   map[string]float64
	Pairs     map[string]int
}

// Fig4 reproduces the small-dataset threshold sweep on 500 machines:
// all three V-SMART-Join algorithms and VCL, t ∈ {0.1 … 0.9}.
func Fig4(env *Env) (Report, error) {
	_, input, err := env.Small()
	if err != nil {
		return Report{}, err
	}
	return thresholdSweep(input, "small dataset, 500 machines")
}

func thresholdSweep(input *mrfs.Dataset, caption string) (Report, error) {
	cluster := Cluster(DefaultMachines)
	thresholds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	algos := []core.Algorithm{core.OnlineAggregation, core.Lookup, core.Sharding}

	rows := make([]Fig4Row, 0, len(thresholds))
	var kernelFrac []float64
	for _, t := range thresholds {
		row := Fig4Row{Threshold: t, Seconds: map[string]float64{}, Pairs: map[string]int{}}
		for _, alg := range algos {
			res, err := paperJoin(cluster, input, t, alg)
			if err != nil {
				return Report{}, fmt.Errorf("fig4 %s t=%v: %w", alg, t, err)
			}
			row.Seconds[alg.String()] = res.Stats.TotalSeconds
			row.Pairs[alg.String()] = len(res.Pairs)
		}
		vres, err := vclJoin(cluster, input, t, false)
		if err != nil {
			return Report{}, fmt.Errorf("fig4 vcl t=%v: %w", t, err)
		}
		row.Seconds["vcl"] = vres.Stats.TotalSeconds
		row.Pairs["vcl"] = len(vres.Pairs)
		kernelFrac = append(kernelFrac, vres.KernelMapSeconds/vres.Stats.TotalSeconds)
		rows = append(rows, row)
	}

	names := []string{"online-aggregation", "lookup", "sharding", "vcl"}
	tbl := stats.Table{
		Title:   "Fig 4 — run time (simulated s) vs similarity threshold (" + caption + ")",
		Headers: append([]string{"t"}, append(append([]string{}, names...), "pairs", "vcl/oa")...),
	}
	series := make([]stats.Series, len(names))
	for i, n := range names {
		series[i].Name = n
	}
	agree := true
	for _, r := range rows {
		cells := []string{fmt.Sprintf("%.1f", r.Threshold)}
		for i, n := range names {
			cells = append(cells, fmt.Sprintf("%.0f", r.Seconds[n]))
			series[i].Add(r.Threshold, r.Seconds[n])
		}
		for _, n := range names[1:] {
			if r.Pairs[n] != r.Pairs[names[0]] {
				agree = false
			}
		}
		cells = append(cells, fmt.Sprintf("%d", r.Pairs[names[0]]),
			fmt.Sprintf("%.1fx", r.Seconds["vcl"]/r.Seconds["online-aggregation"]))
		tbl.AddRow(cells...)
	}

	var body strings.Builder
	body.WriteString(tbl.String())
	body.WriteString("\n")
	body.WriteString(stats.Chart(series, 64, 16))
	fmt.Fprintf(&body, "\nAll algorithms agree on pair counts at every threshold: %v\n", agree)
	fmt.Fprintf(&body, "VCL kernel-map share of VCL total: %.0f%% (t=0.1) … %.0f%% (t=0.9); paper reports >=86%%.\n",
		100*kernelFrac[0], 100*kernelFrac[len(kernelFrac)-1])
	body.WriteString("Paper: VCL 30x slower than Online-Aggregation at t=0.1 shrinking to 5x at t=0.9;\n" +
		"V-SMART-Join algorithms nearly flat in t; ordering OA < Lookup < Sharding.\n")
	return Report{ID: "fig4", Title: "Run time vs similarity threshold", Body: body.String()}, nil
}

// Fig5 reproduces the small-dataset machine sweep at t = 0.5: each
// algorithm runs once (execution is machine-count independent) and its
// cost profile is re-evaluated at W = 100 … 900.
func Fig5(env *Env) (Report, error) {
	_, input, err := env.Small()
	if err != nil {
		return Report{}, err
	}
	cluster := Cluster(DefaultMachines)
	type algRun struct {
		name  string
		stats mr.PipelineStats
	}
	var runs []algRun
	for _, alg := range []core.Algorithm{core.OnlineAggregation, core.Lookup, core.Sharding} {
		res, err := paperJoin(cluster, input, SweepThreshold, alg)
		if err != nil {
			return Report{}, fmt.Errorf("fig5 %s: %w", alg, err)
		}
		runs = append(runs, algRun{alg.String(), res.Stats})
	}
	vres, err := vclJoin(cluster, input, SweepThreshold, false)
	if err != nil {
		return Report{}, fmt.Errorf("fig5 vcl: %w", err)
	}
	runs = append(runs, algRun{"vcl", vres.Stats})

	machines := []int{100, 200, 300, 400, 500, 600, 700, 800, 900}
	tbl := stats.Table{
		Title:   "Fig 5 — run time (simulated s) vs machines (small dataset, t = 0.5)",
		Headers: []string{"machines"},
	}
	series := make([]stats.Series, len(runs))
	for i, r := range runs {
		tbl.Headers = append(tbl.Headers, r.name)
		series[i].Name = r.name
	}
	totals := map[string]map[int]float64{}
	for _, w := range machines {
		cells := []string{fmt.Sprintf("%d", w)}
		for i, r := range runs {
			v := evalTotal(r.stats, w)
			cells = append(cells, fmt.Sprintf("%.0f", v))
			series[i].Add(float64(w), v)
			if totals[r.name] == nil {
				totals[r.name] = map[int]float64{}
			}
			totals[r.name][w] = v
		}
		tbl.AddRow(cells...)
	}
	var body strings.Builder
	body.WriteString(tbl.String())
	body.WriteString("\n")
	body.WriteString(stats.Chart(series, 64, 16))
	body.WriteString("\nRun-time reduction from 100 to 900 machines:\n")
	for _, r := range runs {
		drop := 100 * (1 - totals[r.name][900]/totals[r.name][100])
		fmt.Fprintf(&body, "  %-20s %.0f%%\n", r.name, drop)
	}
	body.WriteString("Paper: VCL drops only 35% (flat past 500 machines — the biggest multiset's\n" +
		"mapper bottlenecks it); Online-Aggregation drops 53% (most); Lookup drops 32%\n" +
		"(least, due to the fixed side-table load on every machine).\n")
	return Report{ID: "fig5", Title: "Run time vs machines (small)", Body: body.String()}, nil
}

// vclJoin runs the VCL baseline with the experiment defaults.
func vclJoin(cluster mr.ClusterConfig, input *mrfs.Dataset, t float64, hashOrder bool) (*vcl.Result, error) {
	return vcl.Join(cluster, input, vcl.Config{
		Measure:     similarity.Ruzicka{},
		Threshold:   t,
		HashOrder:   hashOrder,
		NumReducers: NumReducers,
	})
}

// Fig6 reproduces the realistic-dataset comparison: Lookup cannot load its
// table, VCL dies even with the hash-order modification, and the two
// survivors scale with the machine count, with the joining and similarity
// phases reported separately.
func Fig6(env *Env) (Report, error) {
	_, input, err := env.Realistic()
	if err != nil {
		return Report{}, err
	}
	cluster := Cluster(DefaultMachines)
	var body strings.Builder

	// Lookup: expected to fail loading the Mi → Uni(Mi) table.
	_, lerr := paperJoin(cluster, input, SweepThreshold, core.Lookup)
	if lerr == nil {
		return Report{}, fmt.Errorf("fig6: lookup unexpectedly succeeded on the realistic dataset")
	}
	fmt.Fprintf(&body, "Lookup:   FAILED as in the paper — %v\n", lerr)

	// VCL: frequency ordering fails on memory; the hash-order modification
	// gets further but its kernel mappers exceed the scheduler deadline.
	_, verr := vclJoin(cluster, input, SweepThreshold, false)
	if verr == nil {
		return Report{}, fmt.Errorf("fig6: vcl unexpectedly succeeded on the realistic dataset")
	}
	fmt.Fprintf(&body, "VCL:      FAILED as in the paper — %v\n", verr)
	_, herr := vclJoin(cluster, input, SweepThreshold, true)
	if herr == nil {
		return Report{}, fmt.Errorf("fig6: hash-order vcl unexpectedly succeeded")
	}
	fmt.Fprintf(&body, "VCL+hash: FAILED as in the paper — %v\n\n", herr)

	// Survivors.
	type phase struct{ joining, sim mr.PipelineStats }
	surv := map[string]phase{}
	for _, alg := range []core.Algorithm{core.OnlineAggregation, core.Sharding} {
		res, err := paperJoin(cluster, input, SweepThreshold, alg)
		if err != nil {
			return Report{}, fmt.Errorf("fig6 %s: %w", alg, err)
		}
		surv[alg.String()] = phase{res.JoiningStats, res.SimilarityStats}
	}

	machines := []int{100, 200, 300, 400, 500, 600, 700, 800, 900}
	tbl := stats.Table{
		Title: "Fig 6 — run time (simulated s) vs machines (realistic dataset, t = 0.5)",
		Headers: []string{"machines", "oa-joining", "sharding-joining", "similarity-phase(oa)",
			"oa-total", "sharding-total", "sharding/oa"},
	}
	var series []stats.Series
	oaSeries, shSeries := stats.Series{Name: "online-aggregation"}, stats.Series{Name: "sharding"}
	for _, w := range machines {
		oaJoin := evalTotal(surv["online-aggregation"].joining, w)
		shJoin := evalTotal(surv["sharding"].joining, w)
		oaSim := evalTotal(surv["online-aggregation"].sim, w)
		shSim := evalTotal(surv["sharding"].sim, w)
		oaTotal, shTotal := oaJoin+oaSim, shJoin+shSim
		tbl.AddRow(fmt.Sprintf("%d", w),
			fmt.Sprintf("%.0f", oaJoin), fmt.Sprintf("%.0f", shJoin), fmt.Sprintf("%.0f", oaSim),
			fmt.Sprintf("%.0f", oaTotal), fmt.Sprintf("%.0f", shTotal),
			fmt.Sprintf("%.2fx", shTotal/oaTotal))
		oaSeries.Add(float64(w), oaTotal)
		shSeries.Add(float64(w), shTotal)
	}
	series = append(series, oaSeries, shSeries)
	body.WriteString(tbl.String())
	body.WriteString("\n")
	body.WriteString(stats.Chart(series, 64, 14))
	body.WriteString("\nPaper: only Online-Aggregation and Sharding finish; both keep scaling with\n" +
		"machines; the Sharding joining phase costs roughly twice Online-Aggregation's.\n")
	return Report{ID: "fig6", Title: "Run time vs machines (realistic)", Body: body.String()}, nil
}

// Fig7 reproduces the Sharding sensitivity analysis: the joining phase is
// run across C values; Sharding1 time falls with C, Sharding2 rises, and
// the total stays nearly flat.
func Fig7(env *Env) (Report, error) {
	_, input, err := env.Realistic()
	if err != nil {
		return Report{}, err
	}
	cluster := Cluster(DefaultMachines)
	tbl := stats.Table{
		Title:   "Fig 7 — Sharding joining-phase time (simulated s) vs parameter C (realistic, t = 0.5)",
		Headers: []string{"C", "sharding1", "sharding2", "total", "sharded-multisets"},
	}
	s1Series, s2Series, totSeries := stats.Series{Name: "sharding1"}, stats.Series{Name: "sharding2"}, stats.Series{Name: "total"}
	type row struct {
		c                  int
		s1, s2, total      float64
		shardedTableecords int64
	}
	var rows []row
	for c := 4; c <= 4096; c *= 2 {
		_, ps, err := core.ShardingJoining(cluster, input, c, NumReducers)
		if err != nil {
			return Report{}, fmt.Errorf("fig7 C=%d: %w", c, err)
		}
		j1, _ := ps.Job("sharding1")
		j2, _ := ps.Job("sharding2")
		r := row{c: c, s1: j1.TotalSeconds, s2: j2.TotalSeconds, total: ps.TotalSeconds,
			shardedTableecords: j1.ReduceOutRecs}
		rows = append(rows, r)
		tbl.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%.1f", r.s1), fmt.Sprintf("%.1f", r.s2),
			fmt.Sprintf("%.1f", r.total), fmt.Sprintf("%d", r.shardedTableecords))
		s1Series.Add(float64(c), r.s1)
		s2Series.Add(float64(c), r.s2)
		totSeries.Add(float64(c), r.total)
	}
	var body strings.Builder
	body.WriteString(tbl.String())
	body.WriteString("\n")
	body.WriteString(stats.Chart([]stats.Series{s1Series, s2Series, totSeries}, 64, 14))
	minTotal, maxTotal := rows[0].total, rows[0].total
	for _, r := range rows {
		if r.total < minTotal {
			minTotal = r.total
		}
		if r.total > maxTotal {
			maxTotal = r.total
		}
	}
	fmt.Fprintf(&body, "\nTotal varies only %.0f%% across the whole C range (paper: \"stayed stable\").\n",
		100*(maxTotal-minTotal)/minTotal)
	body.WriteString("Paper: Sharding1 time decreases with C (fewer table entries output), Sharding2\n" +
		"increases (more on-the-fly aggregation), total roughly flat with a shallow minimum.\n")
	return Report{ID: "fig7", Title: "Sharding sensitivity to C", Body: body.String()}, nil
}

// ProxyStudy reproduces the §7.4 proxy-identification analysis: coverage
// and false positives per threshold, and the effect of dropping IPs with
// fewer than 50 cookie observations.
func ProxyStudy(env *Env) (Report, error) {
	tr, input, err := env.Small()
	if err != nil {
		return Report{}, err
	}
	cluster := Cluster(DefaultMachines)
	base, err := paperJoin(cluster, input, 0.1, core.OnlineAggregation)
	if err != nil {
		return Report{}, err
	}

	var body strings.Builder
	tbl := stats.Table{
		Title:   "§7.4 — proxy identification vs threshold (all IPs)",
		Headers: []string{"t", "pairs", "coverage(IPs)", "true-pairs", "false-pairs", "precision", "communities"},
	}
	for _, t := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		pairs := filterPairs(base.Pairs, t)
		m := graphScore(pairs, tr)
		tbl.AddRow(fmt.Sprintf("%.1f", t), fmt.Sprintf("%d", len(pairs)),
			fmt.Sprintf("%d", m.Coverage), fmt.Sprintf("%d", m.TruePairs),
			fmt.Sprintf("%d", m.FalsePairs), fmt.Sprintf("%.3f", m.Precision),
			fmt.Sprintf("%d", m.Communities))
	}
	body.WriteString(tbl.String())

	// Filter IPs with fewer than 50 cookie observations and re-join.
	var kept int
	var filtered []multiset.Multiset
	var totalCookies int64
	for _, m := range tr.Multisets {
		if m.Cardinality() >= 50 {
			filtered = append(filtered, m)
			kept++
			totalCookies += int64(m.UnderlyingCardinality())
		}
	}
	fin := records.BuildInput("small-filtered", filtered, NumReducers)
	fres, err := paperJoin(cluster, fin, 0.1, core.OnlineAggregation)
	if err != nil {
		return Report{}, err
	}
	ftbl := stats.Table{
		Title:   "§7.4 — after filtering IPs with < 50 cookie observations",
		Headers: []string{"t", "pairs", "coverage(IPs)", "false-pairs", "precision"},
	}
	for _, t := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		pairs := filterPairs(fres.Pairs, t)
		m := graphScore(pairs, tr)
		ftbl.AddRow(fmt.Sprintf("%.1f", t), fmt.Sprintf("%d", len(pairs)),
			fmt.Sprintf("%d", m.Coverage), fmt.Sprintf("%d", m.FalsePairs), fmt.Sprintf("%.3f", m.Precision))
	}
	body.WriteString("\n")
	body.WriteString(ftbl.String())
	distinctCookies := countDistinctElements(filtered)
	fmt.Fprintf(&body, "\nAfter filtering: %d of %d IPs remain; %d distinct cookies — %.0fx more cookies than IPs\n",
		kept, len(tr.Multisets), distinctCookies, float64(distinctCookies)/float64(kept))
	// The Lookup table for the filtered dataset fits in memory again.
	_, lerr := paperJoin(cluster, fin, SweepThreshold, core.Lookup)
	fmt.Fprintf(&body, "Lookup on the filtered dataset: %s\n", okOrErr(lerr))
	body.WriteString("\nPaper: t=0.1 gives the highest coverage and the most false positives;\n" +
		"filtering IPs with <50 cookies almost eliminates false positives, leaves about\n" +
		"two orders of magnitude more cookies than IPs, and lets Lookup fit its table.\n")
	return Report{ID: "proxy", Title: "Identifying proxies (§7.4)", Body: body.String()}, nil
}

func okOrErr(err error) string {
	if err == nil {
		return "SUCCEEDED (table fits after filtering, as the paper reports)"
	}
	return "failed: " + err.Error()
}

func filterPairs(pairs []records.Pair, t float64) []records.Pair {
	out := make([]records.Pair, 0, len(pairs))
	for _, p := range pairs {
		if p.Sim+1e-12 >= t {
			out = append(out, p)
		}
	}
	return out
}

func countDistinctElements(sets []multiset.Multiset) int {
	seen := map[uint64]struct{}{}
	for _, m := range sets {
		for _, e := range m.Entries {
			seen[uint64(e.Elem)] = struct{}{}
		}
	}
	return len(seen)
}

// proxyMetrics extends graph.Metrics with the community count.
type proxyMetrics struct {
	graph.Metrics
	Communities int
}

// graphScore runs the §7.4 post-processing: cluster the pairs, score them
// against the planted truth.
func graphScore(pairs []records.Pair, tr *datagen.Trace) proxyMetrics {
	m := graph.Score(pairs, tr.Communities)
	comps := graph.Communities(pairs)
	return proxyMetrics{Metrics: m, Communities: len(comps)}
}
