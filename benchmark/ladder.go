package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/core"
	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/httpd"
	"vsmartjoin/internal/index"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/planner"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/shard"
	"vsmartjoin/internal/similarity"
	"vsmartjoin/internal/vcl"
	"vsmartjoin/internal/wal"
)

// Per-layer metrics: one layer's cost or work, measured from outside by
// timing calls into its public functions. A traced run of any workload
// reports all of them. Time rungs of the serving ladder are medians
// over one seeded request sample with a single caller, each layer
// called with the requests the layer above would hand it, so a layer's
// self time is its rung minus the rung below. Counts come from the
// layers' own stats structs and from runtime.MemStats deltas.
//
// Simulated seconds carry the unit "sim_s": they are a count made by
// the cost model, repeat exactly, and are not a time anybody waited.
var perLayer = []struct{ name, unit string }{
	// mr: the MapReduce engine floor, an identity map + count reduce
	// over the batch_skew input, in memory and with a 4 KiB shuffle buffer.
	{"mr.identity_ns_per_rec", "ns"},
	{"mr.identity_allocs_per_rec", "count"},
	{"mr.spill_ns_per_rec", "ns"},
	{"mr.spill_bytes", "bytes"},
	// records / codec
	{"records.build_input_ms", "ms"},
	{"records.input_bytes", "bytes"},
	{"records.decode_pairs_ms", "ms"},
	// core: the paper's algorithms through core.Join
	{"core.oa.job_s", "s"},
	{"core.lookup.job_s", "s"},
	{"core.sharding.job_s", "s"},
	{"core.sharding_spill.job_s", "s"},
	{"core.oa.allocs_per_tuple", "count"},
	{"core.oa.alloc_mb", "MB"},
	{"core.oa.shuffle_bytes", "bytes"},
	{"core.oa.map_out_recs", "count"},
	{"core.oa.combine_out_recs", "count"},
	{"core.oa.jobs", "count"},
	{"core.candidate_tuples", "count"},
	{"core.output_pairs", "count"},
	{"core.candidates_per_pair", "ratio"},
	{"core.oa.sim_s", "sim_s"},
	{"api.allpairs_residual_ms", "ms"},
	// baselines and siblings on the same engine
	{"vcl.job_s", "s"},
	{"vcl.sim_s", "sim_s"},
	{"knn.allknn_s", "s"},
	{"build.bulk_s", "s"},
	{"build.entities_per_s", "1/s"},
	{"api.open_s", "s"},
	// index: one internal/index.Index partition, pre-interned queries
	{"index.threshold_ns", "ns"},
	{"index.topk_ns", "ns"},
	{"index.knn_ns", "ns"},
	{"index.allocs_per_op", "count"},
	{"index.probes_per_query", "count"},
	{"index.candidates_per_query", "count"},
	{"index.verified_per_query", "count"},
	{"index.results_per_query", "count"},
	{"index.verified_per_result", "ratio"},
	// shard: shard.Set of two partitions
	{"shard.threshold_ns", "ns"},
	{"shard.topk_ns", "ns"},
	{"shard.knn_ns", "ns"},
	{"shard.self_ns", "ns"},
	{"shard.allocs_per_op", "count"},
	// api: the public vsmartjoin.Index (intern, cache key, resolve, pad)
	{"api.threshold_ns", "ns"},
	{"api.topk_ns", "ns"},
	{"api.knn_ns", "ns"},
	{"api.knn_p99_ns", "ns"},
	{"api.knn_padded_share", "ratio"},
	{"api.self_ns", "ns"},
	{"api.allocs_per_op", "count"},
	{"api.cached_ns", "ns"},
	{"api.cache_hit_ratio", "ratio"},
	{"api.add_ns", "ns"},
	{"api.add_batch_ns_per_mutation", "ns"},
	// httpd: the node handler without and with a socket
	{"httpd.handler_ns", "ns"},
	{"httpd.handler_self_ns", "ns"},
	{"httpd.loopback_ns", "ns"},
	{"httpd.net_self_ns", "ns"},
	{"httpd.allocs_per_req", "count"},
	{"httpd.req_bytes", "bytes"},
	{"httpd.resp_bytes", "bytes"},
	{"httpd.shed_ratio", "ratio"},
	{"client.encode_ns", "ns"},
	// cluster: the 2×2 router
	{"cluster.query_ns", "ns"},
	{"cluster.router_http_ns", "ns"},
	{"cluster.router_self_ns", "ns"},
	{"cluster.node_rtt_ns", "ns"},
	{"cluster.write_ns", "ns"},
	{"cluster.bulk_ns_per_mutation", "ns"},
	{"cluster.allocs_per_query", "count"},
	{"cluster.hedges_fired", "count"},
	{"cluster.repair_backlog", "count"},
	// wal
	{"wal.append_ns", "ns"},
	{"wal.bytes_per_mutation", "bytes"},
	{"wal.fsyncs_per_mutation", "ratio"},
	// the workload's own windows in the traced run: the tail latency of
	// the untraced one, and what the traced one adds and accounts for
	{"trace.op_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
	{"trace.spans", "count"},
}

// sample is what timing a loop of calls yields.
type sample struct {
	ns     []float64 // per call
	allocs float64   // heap allocations per call, whole process
	mb     float64   // MB allocated over the loop
}

// timeEach calls fn(i) for i in [0, n), timing each call on its own,
// and corrects the timings for the machine's speed with a reference
// probe before and after the loop.
func (p *refProbe) timeEach(n int, fn func(i int) error) (sample, error) {
	s := sample{ns: make([]float64, n)}
	var before, after runtime.MemStats
	factor := p.runAll()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return s, err
		}
		s.ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&after)
	factor = (factor + p.runAll()) / 2
	for i := range s.ns {
		s.ns[i] /= factor
	}
	s.allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	s.mb = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return s, nil
}

func (s sample) median() float64 { return median(s.ns) }

// ladderSizes scales the ladder down for -quick.
type ladderSizes struct {
	repeats  int // timed repeats of the default batch join
	knnEnts  int // entities in the AllKNN run
	requests int // serving request sample
	writes   int // timed single writes
	batches  int // timed batches of batchSize mutations
}

const batchSize = 64

func sizesFor(quick bool) ladderSizes {
	if quick {
		return ladderSizes{repeats: 1, knnEnts: 100, requests: 192, writes: 32, batches: 1}
	}
	return ladderSizes{repeats: 3, knnEnts: 2000, requests: 4096, writes: 1024, batches: 8}
}

// batchLadder times the layers under vsmartjoin.AllPairs on the
// batch_skew input, each through its own public function, and checks
// every algorithm's pairs against the oracle.
func batchLadder(cfg runConfig, m map[string]float64) error {
	sz := sizesFor(cfg.quick)
	corp, err := generateCorpus(batchTraceConfig(cfg.seed, cfg.quick))
	if err != nil {
		return err
	}
	sets, _ := corp.internedSets()
	want := newOracle(corp.ents).allPairs(vsmartjoin.DefaultThreshold)
	check := func(what string, ids []records.Pair) error {
		if d := diffPairs(resolvePairs(ids, corp.ents), want); d != "" {
			return fmt.Errorf("%s: %s", what, d)
		}
		return nil
	}
	mem := mr.NewCluster(defaultMachines, defaultMemPerMachine)
	// The joins' map tasks emit enough to overflow a 64 KiB shuffle
	// buffer. The identity job's emit only their ≈20 KB of input, so its
	// buffer is 4 KiB, which makes every task spill several sorted runs.
	spill, tinySpill := mem, mem
	spill.ShuffleBufferBytes = 64 << 10
	tinySpill.ShuffleBufferBytes = 4 << 10

	var input *mrfs.Dataset
	s, _ := cfg.probe.timeEach(sz.repeats, func(int) error {
		input = records.BuildInput("input", sets, 4*defaultMachines)
		return nil
	})
	m["records.build_input_ms"] = s.median() / 1e6
	m["records.input_bytes"] = float64(input.Bytes())

	join := func(cl mr.ClusterConfig, alg core.Algorithm, n int) (*core.Result, sample, error) {
		var res *core.Result
		s, err := cfg.probe.timeEach(n, func(int) (err error) {
			res, err = core.Join(cl, input, core.Config{Measure: similarity.Ruzicka{}, Threshold: vsmartjoin.DefaultThreshold, Algorithm: alg})
			return err
		})
		if err != nil {
			return nil, s, err
		}
		return res, s, check(fmt.Sprintf("core.Join(%v)", alg), res.Pairs)
	}
	oa, s, err := join(mem, core.OnlineAggregation, sz.repeats)
	if err != nil {
		return err
	}
	m["core.oa.job_s"] = s.median() / 1e9
	m["core.oa.allocs_per_tuple"] = s.allocs / float64(corp.tuples)
	m["core.oa.alloc_mb"] = s.mb / float64(sz.repeats)
	for _, j := range oa.Stats.Jobs {
		m["core.oa.shuffle_bytes"] += float64(j.ShuffleBytes)
		m["core.oa.map_out_recs"] += float64(j.MapOutRecords)
		m["core.oa.combine_out_recs"] += float64(j.CombineOutRecs)
	}
	m["core.oa.jobs"] = float64(len(oa.Stats.Jobs))
	m["core.oa.sim_s"] = oa.Stats.TotalSeconds
	cands, pairs := oa.Stats.Counter(core.CounterCandidateTuples), oa.Stats.Counter(core.CounterOutputPairs)
	m["core.candidate_tuples"] = float64(cands)
	m["core.output_pairs"] = float64(pairs)
	if pairs > 0 {
		m["core.candidates_per_pair"] = float64(cands) / float64(pairs)
	}
	s, err = cfg.probe.timeEach(5, func(int) error {
		_, err := records.DecodePairs(oa.Output)
		return err
	})
	if err != nil {
		return err
	}
	m["records.decode_pairs_ms"] = s.median() / 1e6

	for _, alt := range []struct {
		name string
		cl   mr.ClusterConfig
		alg  core.Algorithm
	}{
		{"core.lookup.job_s", mem, core.Lookup},
		{"core.sharding.job_s", mem, core.Sharding},
		{"core.sharding_spill.job_s", spill.Hadoop(), core.Sharding},
	} {
		_, s, err := join(alt.cl, alt.alg, 1)
		if err != nil {
			return err
		}
		m[alt.name] = s.median() / 1e9
	}

	var baseline *vcl.Result
	s, err = cfg.probe.timeEach(1, func(int) (err error) {
		baseline, err = vcl.Join(mem, input, vcl.Config{Measure: similarity.Ruzicka{}, Threshold: vsmartjoin.DefaultThreshold})
		return err
	})
	if err != nil {
		return err
	}
	if err := check("vcl.Join", baseline.Pairs); err != nil {
		return err
	}
	m["vcl.job_s"] = s.median() / 1e9
	m["vcl.sim_s"] = baseline.Stats.TotalSeconds

	// The engine floor: every input record through map, shuffle and a
	// reduce that only counts its values.
	identity := mr.Job{
		Name:   "identity",
		Input:  input,
		Mapper: mr.IdentityMapper{},
		Reducer: mr.ReducerFunc(func(_ *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
			var b codec.Buffer
			b.PutUvarint(uint64(values.Len()))
			emit.Emit(key, b.Clone())
			return nil
		}),
		OutputName: "identity-out",
	}
	recs := float64(input.NumRecords())
	for _, e := range []struct {
		cl     mr.ClusterConfig
		ns, by string
	}{
		{mem, "mr.identity_ns_per_rec", ""},
		{tinySpill, "mr.spill_ns_per_rec", "mr.spill_bytes"},
	} {
		var st mr.JobStats
		s, err := cfg.probe.timeEach(sz.repeats, func(int) (err error) {
			_, st, err = mr.Run(e.cl, identity)
			return err
		})
		if err != nil {
			return err
		}
		m[e.ns] = s.median() / recs
		if e.by == "" {
			m["mr.identity_allocs_per_rec"] = s.allocs / recs
		} else {
			m[e.by] = float64(st.SpilledBytes)
		}
	}

	head := vsmartjoin.NewDataset()
	for _, e := range corp.ents[:min(sz.knnEnts, len(corp.ents))] {
		head.Add(e.name, e.counts)
	}
	s, err = cfg.probe.timeEach(1, func(int) error {
		_, err := vsmartjoin.AllKNN(head, queryK, vsmartjoin.Options{})
		return err
	})
	if err != nil {
		return err
	}
	m["knn.allknn_s"] = s.median() / 1e9

	// What AllPairs spends outside BuildInput and core.Join: option
	// handling, the name table, resolving and sorting the pairs. JobStats
	// carries only simulated time, so the split of core.Join's own
	// wall-clock over its MapReduce jobs cannot be seen from outside.
	// The three are timed side by side, round by round, because a
	// difference of one-second timings taken minutes apart would be lost
	// in the machine's drift.
	data := datasetOf(corp)
	var residuals []float64
	for i := 0; i < sz.repeats; i++ {
		whole, err := cfg.probe.timeCorrected(func() error {
			r, err := vsmartjoin.AllPairs(data, vsmartjoin.Options{Threshold: -1})
			if err == nil && r.Stats.TotalSeconds != oa.Stats.TotalSeconds {
				err = fmt.Errorf("AllPairs simulated %v s, the mirrored core.Join %v s: the ladder no longer mirrors AllPairs", r.Stats.TotalSeconds, oa.Stats.TotalSeconds)
			}
			return err
		})
		if err != nil {
			return err
		}
		parts, err := cfg.probe.timeCorrected(func() error {
			_, err := core.Join(mem, records.BuildInput("input", sets, 4*defaultMachines), core.Config{Measure: similarity.Ruzicka{}, Threshold: vsmartjoin.DefaultThreshold, Algorithm: core.OnlineAggregation})
			return err
		})
		if err != nil {
			return err
		}
		residuals = append(residuals, (whole-parts)*1e3)
	}
	m["api.allpairs_residual_ms"] = median(residuals)
	return nil
}

// internQuery maps a query onto a dictionary the way the public Index
// does before it calls down: known elements become entries, unknown
// ones only weigh into the query's cardinalities.
func internQuery(dict *multiset.Dict, counts map[string]uint32) index.Query {
	var q index.Query
	entries := make([]multiset.Entry, 0, len(counts))
	for _, elem := range sortedElems(counts) {
		if id, ok := dict.Lookup(elem); ok {
			entries = append(entries, multiset.Entry{Elem: id, Count: counts[elem]})
		} else {
			q.Extra.AccumulateUni(counts[elem])
		}
	}
	q.Set = multiset.New(0, entries)
	return q
}

// querier is the Into query surface index.Index and shard.Set share.
type querier interface {
	QueryThresholdInto(q index.Query, t float64, buf []index.Match) []index.Match
	QueryTopKInto(q index.Query, k int, buf []index.Match) []index.Match
	QueryKNNInto(q index.Query, k int, buf []index.Neighbor) []index.Neighbor
}

// rung is one layer's timings over the request sample: all kinds
// together, for self times, and per kind.
type rung struct {
	all    sample
	byKind [numKinds][]float64
}

func (r *rung) split(qs []query) {
	for i, ns := range r.all.ns {
		r.byKind[qs[i].kind] = append(r.byKind[qs[i].kind], ns)
	}
}

func (r *rung) put(m map[string]float64, layer string) {
	for k, name := range kindNames {
		m[layer+"."+name+"_ns"] = median(r.byKind[k])
	}
	m[layer+".allocs_per_op"] = r.all.allocs
}

// servingLadder times the serving layers from the inverted index up to
// the cluster router, and the write path beside them.
func servingLadder(cfg runConfig, m map[string]float64) error {
	sz := sizesFor(cfg.quick)
	corp, err := generateCorpus(servingTraceConfig(cfg.seed, cfg.quick))
	if err != nil {
		return err
	}
	data := datasetOf(corp)
	o := newOracle(corp.ents)
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 20)))
	qs, err := makeQueries(rng, corp.ents, sz.requests, "l")
	if err != nil {
		return err
	}

	// build → setup_s of the serving workloads
	dir2 := filepath.Join(cfg.scratch, "ladder-shards2")
	if m["build.bulk_s"], err = cfg.probe.timeCorrected(func() error {
		_, err := vsmartjoin.BuildIndexFiles(data, vsmartjoin.IndexOptions{Dir: dir2, Shards: 2})
		return err
	}); err != nil {
		return err
	}
	m["build.entities_per_s"] = float64(len(corp.ents)) / m["build.bulk_s"]
	var ix2 *vsmartjoin.Index
	if m["api.open_s"], err = cfg.probe.timeCorrected(func() (err error) {
		ix2, err = vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{Dir: dir2})
		return err
	}); err != nil {
		return err
	}
	defer ix2.Close()

	// index and shard rungs: the same corpus loaded into the internal
	// structures directly, planned the way the public Index plans them.
	sets, dict := corp.internedSets()
	one := index.New(similarity.Ruzicka{})
	one.SetPlanner(planner.Heuristic{})
	two := shard.New(similarity.Ruzicka{}, 2)
	two.SetPlanner(planner.Heuristic{})
	for _, s := range sets {
		two.Add(s.Clone())
	}
	if err := one.BulkLoad(sets); err != nil {
		return err
	}
	interned := make([]index.Query, len(qs))
	for i := range qs {
		interned[i] = internQuery(dict, qs[i].counts)
	}
	var mbuf []index.Match
	var nbuf []index.Neighbor
	inner := func(layer querier) (rung, error) {
		var r rung
		var err error
		r.all, err = cfg.probe.timeEach(len(qs), func(i int) error {
			switch qs[i].kind {
			case kindThreshold:
				mbuf = layer.QueryThresholdInto(interned[i], queryThreshold, mbuf[:0])
			case kindTopK:
				mbuf = layer.QueryTopKInto(interned[i], queryK, mbuf[:0])
			default:
				nbuf = layer.QueryKNNInto(interned[i], queryK, nbuf[:0])
			}
			return nil
		})
		r.split(qs)
		return r, err
	}
	before := one.Stats()
	indexRung, _ := inner(one)
	after := one.Stats()
	indexRung.put(m, "index")
	if n := float64(after.Queries - before.Queries); n > 0 {
		m["index.probes_per_query"] = float64(after.Probes-before.Probes) / n
		m["index.candidates_per_query"] = float64(after.Candidates-before.Candidates) / n
		m["index.verified_per_query"] = float64(after.Verified-before.Verified) / n
		m["index.results_per_query"] = float64(after.Results-before.Results) / n
	}
	if r := after.Results - before.Results; r > 0 {
		m["index.verified_per_result"] = float64(after.Verified-before.Verified) / float64(r)
	}
	shardRung, _ := inner(two)
	shardRung.put(m, "shard")
	m["shard.self_ns"] = shardRung.all.median() - indexRung.all.median()

	// api rung: the public two-shard Index on distinct queries (misses).
	var apiRung rung
	knnAnswers, knnPadded := 0, 0
	apiRung.all, err = cfg.probe.timeEach(len(qs), func(i int) error {
		a, err := askIndex(ix2, &qs[i])
		if err != nil {
			return err
		}
		if qs[i].kind == kindKNN {
			knnAnswers++
			if n := len(a.neighbors); n > 0 && a.neighbors[n-1].Distance == 1 {
				knnPadded++
			}
		}
		if i < 96 { // a spot check; the workloads verify at length
			if d := a.diff(o, &qs[i]); d != "" {
				return fmt.Errorf("ladder %s query %d: %s", kindNames[qs[i].kind], i, d)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	apiRung.split(qs)
	apiRung.put(m, "api")
	knnNs := append([]float64(nil), apiRung.byKind[kindKNN]...)
	sort.Float64s(knnNs)
	m["api.knn_p99_ns"] = percentile(knnNs, 0.99)
	m["api.knn_padded_share"] = float64(knnPadded) / float64(max(knnAnswers, 1))
	m["api.self_ns"] = apiRung.all.median() - shardRung.all.median()

	// The cache-hit path and everything above it run on node_http's
	// shape: one shard, its pool of 600 bodies, its zipf schedule.
	ix1, err := openBulkIndex(data, filepath.Join(cfg.scratch, "ladder-shards1"), 1)
	if err != nil {
		return err
	}
	defer ix1.Close()
	prng := rand.New(rand.NewSource(subSeed(cfg.seed, 1)))
	pool, err := makeQueries(prng, corp.ents, verifiedQueries, "p")
	if err != nil {
		return err
	}
	ranks := datagen.ZipfRanks(subSeed(cfg.seed, 2), 1.2, zipfOffset, uint64(len(pool)-1), sz.requests)
	for i := range pool {
		if _, err := askIndex(ix1, &pool[i]); err != nil {
			return err
		}
	}
	cached, err := cfg.probe.timeEach(len(ranks), func(i int) error {
		_, err := askIndex(ix1, &pool[ranks[i]])
		return err
	})
	if err != nil {
		return err
	}
	m["api.cached_ns"] = cached.median()

	handler := httpd.NewNode(ix1, httpd.Options{})
	reqs := make([]*http.Request, len(ranks))
	resps := make([]*httptest.ResponseRecorder, len(ranks))
	var reqBytes, respBytes float64
	for i, r := range ranks {
		reqs[i] = httptest.NewRequest(http.MethodPost, pool[r].path, bytes.NewReader(pool[r].body))
		resps[i] = httptest.NewRecorder()
		reqBytes += float64(len(pool[r].body))
	}
	handled, err := cfg.probe.timeEach(len(ranks), func(i int) error {
		handler.ServeHTTP(resps[i], reqs[i])
		if resps[i].Code != http.StatusOK {
			return fmt.Errorf("handler answered %d: %s", resps[i].Code, resps[i].Body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, w := range resps {
		respBytes += float64(w.Body.Len())
	}
	m["httpd.handler_ns"] = handled.median()
	m["httpd.handler_self_ns"] = handled.median() - cached.median()
	m["httpd.allocs_per_req"] = handled.allocs
	m["httpd.req_bytes"] = reqBytes / float64(len(ranks))
	m["httpd.resp_bytes"] = respBytes / float64(len(ranks))

	srv, err := startServer(handler)
	if err != nil {
		return err
	}
	defer srv.stop()
	hc := cluster.NewHTTPClient(0, 1)
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	looped, err := cfg.probe.timeEach(len(ranks), func(i int) error {
		return post(hc, srv.url+pool[ranks[i]].path, pool[ranks[i]].body, "", &buf)
	})
	if err != nil {
		return err
	}
	m["httpd.loopback_ns"] = looped.median()
	m["httpd.net_self_ns"] = looped.median() - handled.median()

	encoded, err := cfg.probe.timeEach(len(qs), func(i int) error {
		_, _, err := encodeQuery(qs[i].kind, qs[i].counts)
		return err
	})
	if err != nil {
		return err
	}
	m["client.encode_ns"] = encoded.median()

	// Writes: the upserts cluster_mixed sends, applied to the durable
	// one-shard index one by one and in batches.
	// Index and cluster each take sz.writes single upserts and sz.batches
	// batches; about one scheduled operation in six is an upsert.
	needed := 2 * (sz.writes + sz.batches*batchSize)
	sched, err := mixedSchedule(subSeed(cfg.seed, 10), 0, 1, corp.ents, 16, 8*needed)
	if err != nil {
		return err
	}
	var adds []mixedOp
	for _, op := range sched {
		if op.counts != nil {
			adds = append(adds, op)
		}
	}
	if len(adds) < needed {
		return fmt.Errorf("schedule yielded only %d upserts of the %d needed", len(adds), needed)
	}
	single, batched := adds[:sz.writes], adds[sz.writes:sz.writes+sz.batches*batchSize]
	added, err := cfg.probe.timeEach(len(single), func(i int) error { return ix1.Add(single[i].entity, single[i].counts) })
	if err != nil {
		return err
	}
	m["api.add_ns"] = added.median()
	batchAdded, err := cfg.probe.timeEach(sz.batches, func(b int) error {
		entries := make([]vsmartjoin.BatchEntry, batchSize)
		for i, op := range batched[b*batchSize : (b+1)*batchSize] {
			entries[i] = vsmartjoin.BatchEntry{Entity: op.entity, Elements: op.counts}
		}
		return ix1.AddBatch(entries)
	})
	if err != nil {
		return err
	}
	m["api.add_batch_ns_per_mutation"] = batchAdded.median() / batchSize
	if st := ix1.Stats(); st.WALRecords > 0 {
		m["wal.fsyncs_per_mutation"] = float64(st.WALFsyncs) / float64(st.WALRecords)
	}

	// wal rung: the same upserts appended to a log of their own, under
	// the flush policy the cluster nodes run with (DurabilityOS: handed
	// to the OS on every append, fsynced only at snapshots and Close).
	walDir := filepath.Join(cfg.scratch, "ladder-wal")
	skip := func(wal.Record) error { return nil }
	wlog, err := wal.Open(walDir, "ruzicka", skip, skip)
	if err != nil {
		return err
	}
	appended, err := cfg.probe.timeEach(len(single), func(i int) error {
		rec := wal.Record{Op: wal.OpAdd, ID: uint64(i + 1), Entity: single[i].entity}
		for _, elem := range sortedElems(single[i].counts) {
			rec.Elements = append(rec.Elements, wal.Element{Name: elem, Count: single[i].counts[elem]})
		}
		return wlog.Append(rec)
	})
	files := wlog.Files()
	if cerr := wlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["wal.append_ns"] = appended.median()
	for _, name := range files {
		if st, err := os.Stat(filepath.Join(walDir, name)); err == nil {
			m["wal.bytes_per_mutation"] += float64(st.Size()) / float64(len(single))
		}
	}

	return clusterLadder(cfg, m, data, qs, adds[sz.writes+sz.batches*batchSize:])
}

// clusterLadder times the router: the vsmartjoin.Cluster client called
// directly, then through httpd.NewRouter over loopback with the
// benchmark's span middleware around the router's and every node's
// handler, then writes and batched writes.
func clusterLadder(cfg runConfig, m map[string]float64, data *vsmartjoin.Dataset, qs []query, adds []mixedOp) error {
	sz := sizesFor(cfg.quick)
	rec := newRecorder()
	cs, err := startCluster(data, filepath.Join(cfg.scratch, "ladder-cluster"), rec)
	if err != nil {
		return err
	}
	defer cs.stop()
	half := len(qs) / 2

	direct, err := cfg.probe.timeEach(half, func(i int) error {
		_, err := cs.client.QueryThreshold(qs[i].counts, queryThreshold)
		return err
	})
	if err != nil {
		return err
	}
	m["cluster.query_ns"] = direct.median()
	m["cluster.allocs_per_query"] = direct.allocs

	hc := cluster.NewHTTPClient(0, 1)
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	rec.reset()
	routed, err := cfg.probe.timeEach(len(qs)-half, func(i int) error {
		q, rid := &qs[half+i], fmt.Sprintf("ladder-%d", i)
		t0 := time.Now()
		err := post(hc, cs.router.url+q.path, q.body, rid, &buf)
		rec.record("client", rid, t0, time.Now())
		return err
	})
	if err != nil {
		return err
	}
	m["cluster.router_http_ns"] = routed.median()
	resolveParents(rec.spans)
	sum := summarizeSpans(rec.spans)
	m["cluster.router_self_ns"] = sum["router"].SelfMedian
	m["cluster.node_rtt_ns"] = sum["node"].MedianNs

	single, batched := adds[:sz.writes], adds[sz.writes:sz.writes+sz.batches*batchSize]
	written, err := cfg.probe.timeEach(len(single), func(i int) error {
		return post(hc, cs.router.url+single[i].path, single[i].body, "", &buf)
	})
	if err != nil {
		return err
	}
	m["cluster.write_ns"] = written.median()
	bodies := make([][]byte, sz.batches)
	for b := range bodies {
		var req cluster.BulkRequest
		for _, op := range batched[b*batchSize : (b+1)*batchSize] {
			req.Ops = append(req.Ops, cluster.BulkOp{Op: "add", Entity: op.entity, Elements: op.counts})
		}
		if bodies[b], err = json.Marshal(req); err != nil {
			return err
		}
	}
	bulked, err := cfg.probe.timeEach(sz.batches, func(b int) error {
		return post(hc, cs.router.url+"/bulk", bodies[b], "", &buf)
	})
	if err != nil {
		return err
	}
	m["cluster.bulk_ns_per_mutation"] = bulked.median() / batchSize
	st := cs.client.Stats()
	m["cluster.hedges_fired"] = float64(st.Hedges)
	m["cluster.repair_backlog"] = float64(st.RepairBacklog)
	return nil
}
