package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"vsmartjoin"
)

func TestMedianAndPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 100}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(sorted[:7], 0.99); got != 7 {
		t.Errorf("p99 of seven samples = %v, want their maximum 7", got)
	}
}

// The highest percentile worth quoting is the one that still has ten
// samples beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// quartileSpread has to agree with Python's
// statistics.quantiles(values, n=4), which is what the driver judges
// the benchmark's steadiness with.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// >>> q = statistics.quantiles([12, 10, 11, 15, 13, 9, 14, 10.5, 12.5, 11.5], n=4)
	// >>> q  ->  [10.375, 11.75, 13.25];  (q[2]-q[0]) / median  ->  0.24468...
	got := quartileSpread([]float64{12, 10, 11, 15, 13, 9, 14, 10.5, 12.5, 11.5})
	if want := (13.25 - 10.375) / 11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSliceWindow(t *testing.T) {
	var samples []opSample
	// Slice 0 completes 4 operations, slice 1 none, slice 2 two; an
	// operation past the last whole slice is dropped.
	for _, ms := range []int{10, 20, 30, 90} {
		samples = append(samples, opSample{end: time.Duration(ms) * time.Millisecond, lat: time.Duration(ms) * time.Microsecond})
	}
	samples = append(samples,
		opSample{end: 210 * time.Millisecond, lat: time.Millisecond},
		opSample{end: 290 * time.Millisecond, lat: 3 * time.Millisecond},
		opSample{end: 310 * time.Millisecond, lat: time.Second})
	// The machine ran at nominal speed up to 200 ms and at half speed
	// from then on: slice 2's probes took twice the nominal time.
	refs := []refSample{
		{at: 0, took: refNominal}, {at: 100 * time.Millisecond, took: refNominal},
		{at: 200 * time.Millisecond, took: 2 * refNominal}, {at: 300 * time.Millisecond, took: 2 * refNominal},
	}
	got := sliceWindow(samples, refs, 300*time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("%d slices, want 3", len(got))
	}
	if got[0].opsPerS != 40 || got[0].p50Ms != 0.025 || got[0].p99Ms != 0.09 {
		t.Errorf("slice 0 = %+v", got[0])
	}
	if got[1] != (slice{}) {
		t.Errorf("empty slice = %+v, want zeros", got[1])
	}
	// 2 operations in 0.1 s at half speed count as 40 a second at nominal
	// speed, and their latencies halve.
	if got[2].opsPerS != 40 || got[2].p50Ms != 1 || got[2].p99Ms != 1.5 {
		t.Errorf("slice 2 = %+v", got[2])
	}
}

// requestStream renders everything a serving workload would send for a
// seed: the corpus, the query bodies and a client's mixed schedule.
func requestStream(t *testing.T, seed int64) []byte {
	t.Helper()
	corp, err := generateCorpus(servingTraceConfig(seed, true))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, e := range corp.ents {
		out.WriteString(e.name)
		for _, elem := range sortedElems(e.counts) {
			out.WriteString(elem)
			out.WriteByte(byte(e.counts[elem]))
		}
	}
	qs, err := makeQueries(rand.New(rand.NewSource(subSeed(seed, 1))), corp.ents, 300, "q")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		out.WriteString(q.path)
		out.Write(q.body)
	}
	sched, err := mixedSchedule(subSeed(seed, 10), 1, 2, corp.ents, 64, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range sched {
		out.WriteByte(byte(op.item))
		out.WriteString(op.path)
		out.Write(op.body)
	}
	return out.Bytes()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := requestStream(t, 7), requestStream(t, 7), requestStream(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced two different request streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same request stream")
	}
}

func randomCounts(rng *rand.Rand) map[string]uint32 {
	m := make(map[string]uint32)
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		m[string(rune('a'+rng.Intn(12)))] = uint32(1 + rng.Intn(5))
	}
	return m
}

// The oracle's similarity is written from the definition alone; it has
// to agree with the system's on every input, to the last bit.
func TestOracleAgreesWithSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randomCounts(rng), randomCounts(rng)
		want, err := vsmartjoin.Similarity("ruzicka", a, b)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle([]entity{{"b", b}})
		var got float64
		if over := o.overlapping(a); len(over) == 1 {
			got = over[0].sim
		}
		if got != want {
			t.Fatalf("oracle says %v, vsmartjoin.Similarity %v for %v ~ %v", got, want, a, b)
		}
	}
}

// A check that cannot fail would let fail counts be vacuously zero:
// corrupt right answers in every way an answer can be wrong and make
// sure each corruption is caught.
func TestOracleCatchesCorruptedAnswers(t *testing.T) {
	corp, err := generateCorpus(servingTraceConfig(3, true))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := vsmartjoin.BuildIndex(datasetOf(corp), vsmartjoin.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	o := newOracle(corp.ents)
	qs, err := makeQueries(rand.New(rand.NewSource(5)), corp.ents, 90, "t")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for i := range qs {
		q := &qs[i]
		a, err := askIndex(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.diff(o, q); d != "" {
			t.Fatalf("right answer to %s query %d rejected: %s", kindNames[q.kind], i, d)
		}
		if n := len(a.matches); n > 1 {
			bad := append([]vsmartjoin.Match(nil), a.matches...)
			bad[0], bad[n-1] = bad[n-1], bad[0]
			if bad[0] != a.matches[0] && (answer{matches: bad}).diff(o, q) == "" {
				t.Errorf("query %d: reordered matches accepted", i)
			}
			bad = append([]vsmartjoin.Match(nil), a.matches...)
			bad[n-1].Similarity = math.Nextafter(bad[n-1].Similarity, 0)
			if (answer{matches: bad}).diff(o, q) == "" {
				t.Errorf("query %d: similarity off by one ulp accepted", i)
			}
			if (answer{matches: a.matches[:n-1]}).diff(o, q) == "" {
				t.Errorf("query %d: truncated matches accepted", i)
			}
			corrupted++
		}
		if n := len(a.neighbors); n > 1 {
			bad := append([]vsmartjoin.Neighbor(nil), a.neighbors...)
			bad[n-1].Entity += "x"
			if (answer{neighbors: bad}).diff(o, q) == "" {
				t.Errorf("query %d: renamed neighbor accepted", i)
			}
			corrupted++
		}
	}
	if corrupted < 30 {
		t.Errorf("only %d answers were long enough to corrupt; the test checks too little", corrupted)
	}

	pairs := o.allPairs(vsmartjoin.DefaultThreshold)
	if len(pairs) < 2 {
		t.Fatalf("oracle found %d pairs in the tiny corpus", len(pairs))
	}
	if d := diffPairs(pairs, pairs); d != "" {
		t.Errorf("identical pair lists differ: %s", d)
	}
	bad := append([]vsmartjoin.Pair(nil), pairs...)
	bad[0].A, bad[0].B = bad[0].B, bad[0].A
	if diffPairs(bad, pairs) == "" {
		t.Error("a pair with its names swapped was accepted")
	}
}

// client → router → two nodes in parallel, one of which runs past the
// router's end, plus an unrelated request.
func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "node", Req: "r1", Start: 20, End: 60},
		{Name: "client", Req: "r1", Start: 0, End: 100},
		{Name: "node", Req: "r1", Start: 30, End: 95},
		{Name: "router", Req: "r1", Start: 10, End: 90},
		{Name: "client", Req: "r2", Start: 5, End: 25},
		{Name: "node", Req: "r2", Start: 10, End: 20},
	}
	resolveParents(spans)
	wantParent := []int{3, -1, 3, 1, -1, 4}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s/%s) has parent %d, want %d", i, s.Name, s.Req, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	// router: 80 long; its children cover [20,60] ∪ [30,90] = 70 of it.
	// client r1: 100 long, the router covers 80. Nodes are leaves.
	want := []int64{40, 20, 65, 10, 10, 10}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d (%s/%s) self time %d, want %d", i, spans[i].Name, spans[i].Req, self[i], want[i])
		}
	}
	sum := summarizeSpans(spans)
	if sum["node"].Count != 3 || sum["node"].MedianNs != 40 || sum["client"].SelfMedian != 15 {
		t.Errorf("summary = %+v", sum)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must keep to the form its readers expect and name
// exactly the workloads and metrics the benchmark emits.
func TestSpecMatchesBenchmark(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.checkNames(); err != nil {
		t.Error(err)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
}

func metricNames(ms []specMetric) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		out[m.Name] = true
	}
	return out
}

// Every workload, on a tiny corpus with a short window, has to answer
// correctly and emit exactly the metrics BENCHMARK.json declares: all
// end-to-end ones untraced, all per-layer ones traced.
func TestQuickRunEmitsDeclaredMetrics(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	scratchRoot = t.TempDir()
	outDir = t.TempDir()
	probe := newRefProbe(numClients())
	check := func(workload string, traced bool, declared []specMetric) {
		t.Helper()
		res, err := runWorkload(runConfig{workload: workload, seed: 11, window: 200 * time.Millisecond, quick: true, probe: probe}, traced)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
		}
		want := metricNames(declared)
		for name, v := range res.Metrics {
			if !want[name] {
				t.Errorf("%s emits %s, which BENCHMARK.json does not declare", workload, name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s is %v", workload, name, v.Value)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", workload, name, v.Value)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s does not emit %s", workload, name)
			}
		}
	}
	for _, w := range workloadNames {
		check(w, false, sp.EndToEnd)
	}
	if testing.Short() {
		return
	}
	// The per-layer set does not depend on the workload; one traced run
	// covers the ladders and the trace file.
	check("cluster_mixed", true, sp.PerLayer)
	data, err := os.ReadFile(filepath.Join(outDir, "trace-cluster_mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"client", "router", "node"} {
		if tf.Summary[name].Count == 0 {
			t.Errorf("trace file has no %s spans", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	file := func(p50, rate []float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"node_http": {EndToEnd: map[string]*metricRuns{
			"op_p50_ms": {Unit: "ms", Values: p50},
			"ops_per_s": {Unit: "1/s", Values: rate},
		}}}}
	}
	a := file([]float64{1.00, 1.01, 0.99, 1.0, 1.0}, []float64{100, 101, 99, 100, 100})
	verdicts := func(b *resultFile) [2]string {
		rows := compareResults(sp, a, b)
		if len(rows) != 2 {
			t.Fatalf("%d rows, want 2", len(rows))
		}
		return [2]string{rows[0].verdict, rows[1].verdict}
	}
	if got := verdicts(file([]float64{1.05, 1.04, 1.06, 1.05, 1.05}, []float64{95, 96, 94, 95, 95})); got != [2]string{verdictOK, verdictOK} {
		t.Errorf("5 %% worse within a 10 %% bound: %v", got)
	}
	if got := verdicts(file([]float64{1.2, 1.2, 1.21, 1.19, 1.2}, []float64{130, 131, 129, 130, 130})); got != [2]string{verdictWorse, verdictOK} {
		t.Errorf("20 %% slower, 30 %% more throughput: %v", got)
	}
	if got := verdicts(file([]float64{0.5, 0.5, 0.5, 0.5, 0.5}, []float64{80, 80, 81, 79, 80})); got != [2]string{verdictOK, verdictWorse} {
		t.Errorf("twice as fast, 20 %% less throughput: %v", got)
	}
	if got := verdicts(file([]float64{0.8, 1.3, 1.0, 1.6, 0.7}, []float64{100, 100, 100, 100, 100})); got != [2]string{verdictUnresolved, verdictOK} {
		t.Errorf("spread wider than the bound: %v", got)
	}
}
