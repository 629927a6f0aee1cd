package vsmartjoin

// The benchmark harness regenerates every figure of the paper's evaluation
// (§7) at benchmark scale. Each BenchmarkFigN exercises the same code paths
// as `cmd/experiments -fig N` on reduced traces so `go test -bench=.`
// finishes quickly; the full-scale reproduction lives in cmd/experiments
// and its output is recorded in EXPERIMENTS.md.
//
// Custom metrics: sim-s/run is the simulated cluster seconds of the
// measured configuration; pairs/run is the result size.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"vsmartjoin/internal/core"
	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/experiments"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
	"vsmartjoin/internal/vcl"
)

// benchTrace caches the benchmark-scale trace across benchmarks.
var benchTrace *datagen.Trace

func benchInput(b *testing.B) (*datagen.Trace, *mrfs.Dataset) {
	b.Helper()
	if benchTrace == nil {
		tr, err := datagen.Generate(datagen.TinyConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = tr
	}
	return benchTrace, records.BuildInput("bench", benchTrace.Multisets, 64)
}

func benchCluster() mr.ClusterConfig {
	cl := experiments.Cluster(experiments.DefaultMachines)
	cl.Cost.MaxTaskSeconds = 0
	return cl
}

// BenchmarkFig2_Distributions regenerates the Fig 2–3 dataset histograms.
func BenchmarkFig2_Distributions(b *testing.B) {
	tr, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perM := 0
		freq := make(map[multiset.Elem]int64)
		for _, m := range tr.Multisets {
			perM += m.UnderlyingCardinality()
			for _, e := range m.Entries {
				freq[e.Elem]++
			}
		}
		if perM == 0 || len(freq) == 0 {
			b.Fatal("empty distributions")
		}
	}
}

// BenchmarkFig4_SmallVsThreshold measures one point of the Fig 4 sweep per
// algorithm (t = 0.5; the V-SMART algorithms are threshold-insensitive).
func BenchmarkFig4_SmallVsThreshold(b *testing.B) {
	_, input := benchInput(b)
	for _, alg := range []core.Algorithm{core.OnlineAggregation, core.Lookup, core.Sharding} {
		b.Run(alg.String(), func(b *testing.B) {
			var sim float64
			var pairs int
			for i := 0; i < b.N; i++ {
				res, err := core.Join(benchCluster(), input, core.Config{
					Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: alg, NumReducers: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Stats.TotalSeconds
				pairs = len(res.Pairs)
			}
			b.ReportMetric(sim, "sim-s/run")
			b.ReportMetric(float64(pairs), "pairs/run")
		})
	}
	b.Run("vcl", func(b *testing.B) {
		var sim float64
		for i := 0; i < b.N; i++ {
			res, err := vcl.Join(benchCluster(), input, vcl.Config{
				Measure: similarity.Ruzicka{}, Threshold: 0.5, NumReducers: 64,
			})
			if err != nil {
				b.Fatal(err)
			}
			sim = res.Stats.TotalSeconds
		}
		b.ReportMetric(sim, "sim-s/run")
	})
}

// BenchmarkFig5_SmallVsMachines measures the machine sweep: one execution,
// profile re-evaluated across the paper's 100–900 range.
func BenchmarkFig5_SmallVsMachines(b *testing.B) {
	_, input := benchInput(b)
	res, err := core.Join(benchCluster(), input, core.Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: core.OnlineAggregation, NumReducers: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	cm := experiments.CostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total float64
		for w := 100; w <= 900; w += 100 {
			for _, j := range res.Stats.Jobs {
				total += j.Profile.Evaluate(w, cm).Total
			}
		}
		if total <= 0 {
			b.Fatal("no cost")
		}
	}
}

// BenchmarkFig6_RealisticVsMachines measures the surviving algorithms'
// full pipelines (the realistic-scale failure modes are asserted in the
// core and vcl test suites).
func BenchmarkFig6_RealisticVsMachines(b *testing.B) {
	_, input := benchInput(b)
	for _, alg := range []core.Algorithm{core.OnlineAggregation, core.Sharding} {
		b.Run(alg.String(), func(b *testing.B) {
			var joining, sim float64
			for i := 0; i < b.N; i++ {
				res, err := core.Join(benchCluster(), input, core.Config{
					Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: alg, NumReducers: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				joining = res.JoiningStats.TotalSeconds
				sim = res.SimilarityStats.TotalSeconds
			}
			b.ReportMetric(joining, "joining-sim-s")
			b.ReportMetric(sim, "similarity-sim-s")
		})
	}
}

// BenchmarkFig7_ShardingC measures the joining phase across the C sweep.
func BenchmarkFig7_ShardingC(b *testing.B) {
	_, input := benchInput(b)
	for _, c := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, ps, err := core.ShardingJoining(benchCluster(), input, c, 64)
				if err != nil {
					b.Fatal(err)
				}
				sim = ps.TotalSeconds
			}
			b.ReportMetric(sim, "sim-s/run")
		})
	}
}

// BenchmarkProxyStudy measures the §7.4 pipeline: join at t = 0.1, cluster
// into communities, score against the planted truth.
func BenchmarkProxyStudy(b *testing.B) {
	tr, input := benchInput(b)
	for i := 0; i < b.N; i++ {
		res, err := core.Join(benchCluster(), input, core.Config{
			Measure: similarity.Ruzicka{}, Threshold: 0.1, Algorithm: core.OnlineAggregation, NumReducers: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) == 0 {
			b.Fatal("no pairs")
		}
		_ = tr
	}
}

// --- ablation and micro benchmarks ---

// BenchmarkAblation_Combiners quantifies the dedicated-combiner design
// choice the paper calls out: identical results, smaller shuffle and
// better reducer balance with combiners on.
func BenchmarkAblation_Combiners(b *testing.B) {
	_, input := benchInput(b)
	for _, disabled := range []bool{false, true} {
		name := "with-combiners"
		if disabled {
			name = "without-combiners"
		}
		b.Run(name, func(b *testing.B) {
			var sim float64
			var shuffle int64
			for i := 0; i < b.N; i++ {
				res, err := core.Join(benchCluster(), input, core.Config{
					Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: core.OnlineAggregation,
					NumReducers: 64, DisableCombiners: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Stats.TotalSeconds
				shuffle = 0
				for _, j := range res.Stats.Jobs {
					shuffle += j.ShuffleBytes
				}
			}
			b.ReportMetric(sim, "sim-s/run")
			b.ReportMetric(float64(shuffle), "shuffle-B/run")
		})
	}
}

// BenchmarkAblation_StopWords quantifies the §4 stop-word preprocessing:
// dropping hot elements trades an extra MR step for quadratic pair-list
// savings in Similarity1.
func BenchmarkAblation_StopWords(b *testing.B) {
	_, input := benchInput(b)
	for _, q := range []int{0, 64} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := core.Join(benchCluster(), input, core.Config{
					Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: core.Sharding,
					NumReducers: 64, StopWordQ: q,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Stats.TotalSeconds
			}
			b.ReportMetric(sim, "sim-s/run")
		})
	}
}

// BenchmarkMeasures times the similarity kernels on a merge-heavy pair.
func BenchmarkMeasures(b *testing.B) {
	entries := make([]multiset.Entry, 256)
	for i := range entries {
		entries[i] = multiset.Entry{Elem: multiset.Elem(i * 3), Count: uint32(i%7 + 1)}
	}
	x := multiset.New(1, entries)
	for i := range entries {
		entries[i] = multiset.Entry{Elem: multiset.Elem(i * 2), Count: uint32(i%5 + 1)}
	}
	y := multiset.New(2, entries)
	for _, m := range similarity.All() {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = similarity.Exact(m, x, y)
			}
		})
	}
}

// BenchmarkShuffleSpill compares the engine's two shuffle modes on an
// identical join: all-in-memory versus spill-to-disk with a cap small
// enough that every map task writes segment runs. Results are identical;
// the metrics expose the real-time cost of streaming through disk and the
// simulated I/O charged for it.
func BenchmarkShuffleSpill(b *testing.B) {
	_, input := benchInput(b)
	for _, cap := range []int64{0, 4 << 10} {
		name := "in-memory"
		if cap > 0 {
			name = fmt.Sprintf("spill-cap-%dKiB", cap>>10)
		}
		b.Run(name, func(b *testing.B) {
			cl := benchCluster()
			cl.ShuffleBufferBytes = cap
			var pairs int
			var spilled int64
			for i := 0; i < b.N; i++ {
				res, err := core.Join(cl, input, core.Config{
					Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: core.OnlineAggregation, NumReducers: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(res.Pairs)
				spilled = 0
				for _, j := range res.Stats.Jobs {
					spilled += j.SpilledBytes
				}
			}
			if cap > 0 && spilled == 0 {
				b.Fatal("spill cap set but nothing spilled")
			}
			b.ReportMetric(float64(pairs), "pairs/run")
			b.ReportMetric(float64(spilled), "spilled-B/run")
		})
	}
}

// --- online serving benchmarks ---

// benchIndexEntities synthesizes entity→counts inputs for the online
// index: zipf-ish element popularity so posting lists are skewed the way
// real traffic is.
func benchIndexEntities(n int) []map[string]uint32 {
	out := make([]map[string]uint32, n)
	for i := range out {
		counts := make(map[string]uint32, 12)
		for j := 0; j < 12; j++ {
			// Quadratic skew: low element IDs are shared by many entities.
			elem := (i*31 + j*j*7) % (n/2 + 64)
			counts[fmt.Sprintf("e%d", elem)] = uint32(j%5 + 1)
		}
		out[i] = counts
	}
	return out
}

// BenchmarkIndexAdd measures incremental insertion into a live index,
// including posting-list upkeep and the periodic compaction triggered by
// the upserts that wrap around the key space.
func BenchmarkIndexAdd(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			entities := benchIndexEntities(n)
			ix, err := NewIndex(IndexOptions{Measure: "ruzicka"})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustAdd(b, ix, fmt.Sprintf("entity-%d", i%n), entities[i%n])
			}
		})
	}
}

// BenchmarkIndexQuery measures threshold queries across dataset sizes and
// thresholds. Higher thresholds let the prefix and length filters cut the
// probe short, so sims/op (similarities computed per query) falls with t.
// The result cache is off: n=1000's queries would all fit in it.
func BenchmarkIndexQuery(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		entities := benchIndexEntities(n)
		ix, err := NewIndex(IndexOptions{Measure: "ruzicka", CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		for i, counts := range entities {
			mustAdd(b, ix, fmt.Sprintf("entity-%d", i), counts)
		}
		for _, t := range []float64{0.1, 0.5, 0.9} {
			b.Run(fmt.Sprintf("n=%d/t=%v", n, t), func(b *testing.B) {
				before := ix.Stats()
				for i := 0; i < b.N; i++ {
					if _, err := ix.QueryThreshold(entities[i%len(entities)], t); err != nil {
						b.Fatal(err)
					}
				}
				after := ix.Stats()
				b.ReportMetric(float64(after.Verified-before.Verified)/float64(b.N), "sims/op")
				b.ReportMetric(float64(after.Results-before.Results)/float64(b.N), "matches/op")
			})
		}
	}
}

// BenchmarkIndexTopK measures ranked queries with the rising-floor
// cutoff, result cache off.
func BenchmarkIndexTopK(b *testing.B) {
	entities := benchIndexEntities(10000)
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka", CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i, counts := range entities {
		mustAdd(b, ix, fmt.Sprintf("entity-%d", i), counts)
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.QueryTopK(entities[i%len(entities)], k)
			}
		})
	}
}

// BenchmarkZipfRepeatedQuery measures a skewed serving workload: query
// popularity drawn from the same Zipf machinery the trace generator
// uses (internal/datagen), so a handful of head queries repeat
// constantly while the tail is seen once — the "millions of users"
// shape. The cache=off mode is the uncached floor every query pays;
// cache=on is the same zipf mix with the bounded LRU result cache
// (hits/op reports its measured hit rate); cache=hit isolates the pure
// hit path by replaying only the head query, the cost a repeated query
// pays once cached.
func BenchmarkZipfRepeatedQuery(b *testing.B) {
	const n = 10000
	entities := benchIndexEntities(n)
	ranks := datagen.ZipfRanks(7, 1.4, 4, uint64(n-1), 1<<15)
	head := make([]uint64, len(ranks))
	for i := range head {
		head[i] = ranks[0]
	}
	modes := []struct {
		name  string
		opts  IndexOptions
		ranks []uint64
	}{
		{"cache=off", IndexOptions{Measure: "ruzicka", CacheSize: -1}, ranks},
		{"cache=on", IndexOptions{Measure: "ruzicka"}, ranks},
		{"cache=hit", IndexOptions{Measure: "ruzicka"}, head},
	}
	for _, mode := range modes {
		ix, err := NewIndex(mode.opts)
		if err != nil {
			b.Fatal(err)
		}
		for i, counts := range entities {
			mustAdd(b, ix, fmt.Sprintf("entity-%d", i), counts)
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			before := ix.Stats()
			for i := 0; i < b.N; i++ {
				if _, err := ix.QueryThreshold(entities[mode.ranks[i%len(mode.ranks)]], 0.5); err != nil {
					b.Fatal(err)
				}
			}
			if after := ix.Stats(); after.CacheHits > before.CacheHits {
				b.ReportMetric(float64(after.CacheHits-before.CacheHits)/float64(b.N), "hits/op")
			}
		})
	}
}

// BenchmarkWALAppend measures write throughput with durability off and
// on: the WAL-on figure includes encoding, framing, checksumming, and
// the unbuffered write into the OS cache on every Add (but no fsync,
// matching the documented durability granularity). SnapshotEvery is
// disabled so the numbers isolate the append path.
func BenchmarkWALAppend(b *testing.B) {
	entities := benchIndexEntities(4096)
	for _, durable := range []bool{false, true} {
		name := "wal=off"
		opts := IndexOptions{Measure: "ruzicka"}
		if durable {
			name = "wal=on"
			opts.Dir = b.TempDir()
			opts.SnapshotEvery = -1
		}
		b.Run(name, func(b *testing.B) {
			ix, err := NewIndex(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := i % len(entities)
				if err := ix.Add(fmt.Sprintf("entity-%d", n), entities[n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteStorm measures sustained mutation throughput under a
// contended hot-key write storm: entity popularity drawn zipf(s=1.2) so
// a few head entities absorb most writes, GOMAXPROCS concurrent
// writers, and both durability modes — os (no fsync before ack) and
// sync (group-committed fsync before every ack). unbatched drives the
// single-op Add path, the baseline; batch=64 and batch=256 accumulate
// per-worker AddBatch calls of that size (256 is the window in which the
// deleted asynchronous write pipeline was measured, kept so the
// comparison that retired it, recorded in CHANGES.md, stays
// reproducible). fsyncs/mut reports physical fsyncs per acknowledged
// mutation, the group-commit amortization gate (< 0.1 under sync
// batching).
func BenchmarkWriteStorm(b *testing.B) {
	const n = 4096
	const seqMask = 1<<16 - 1
	entities := benchIndexEntities(n)
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.2, 1, n-1)
	seq := make([]uint64, seqMask+1)
	for i := range seq {
		seq[i] = zipf.Uint64()
	}
	durabilities := []struct {
		name string
		d    Durability
	}{
		{"durability=os", DurabilityOS},
		{"durability=sync", DurabilitySync},
	}
	for _, dur := range durabilities {
		for _, mode := range []struct {
			name string
			size int
		}{{"unbatched", 1}, {"batch=64", 64}, {"batch=256", 256}} {
			b.Run(dur.name+"/"+mode.name, func(b *testing.B) {
				ix, err := NewIndex(IndexOptions{Measure: "ruzicka", Dir: b.TempDir(),
					SnapshotEvery: -1, Durability: dur.d})
				if err != nil {
					b.Fatal(err)
				}
				defer ix.Close()
				var cursor atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					batch := make([]BatchEntry, 0, mode.size)
					flush := func() {
						if err := ix.AddBatch(batch); err != nil {
							b.Error(err)
						}
						batch = batch[:0]
					}
					for pb.Next() {
						k := seq[cursor.Add(1)&seqMask]
						name := fmt.Sprintf("entity-%d", k)
						if mode.size == 1 {
							if err := ix.Add(name, entities[k]); err != nil {
								b.Error(err)
								return
							}
							continue
						}
						batch = append(batch, BatchEntry{Entity: name, Elements: entities[k]})
						if len(batch) == mode.size {
							flush()
						}
					}
					flush()
				})
				b.StopTimer()
				if st := ix.Stats(); st.WALRecords > 0 {
					b.ReportMetric(float64(st.WALFsyncs)/float64(st.WALRecords), "fsyncs/mut")
				}
			})
		}
	}
}

// BenchmarkEngine measures the raw MapReduce substrate on a word-count
// shaped job.
func BenchmarkEngine(b *testing.B) {
	recs := make([]mrfs.Record, 4096)
	for i := range recs {
		recs[i] = mrfs.Record{
			Key: []byte(fmt.Sprintf("k%d", i)),
			Val: []byte(fmt.Sprintf("v%d w%d w%d", i, i%17, i%31)),
		}
	}
	input, err := mrfs.FromRecords("bench", recs, 16)
	if err != nil {
		b.Fatal(err)
	}
	mapper := mr.MapperFunc(func(_ *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
		emit.Emit(rec.Val[:2], rec.Key)
		return nil
	})
	reducer := mr.ReducerFunc(func(_ *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
		n := 0
		for {
			if _, ok := values.Next(); !ok {
				break
			}
			n++
		}
		emit.Emit(key, []byte(fmt.Sprintf("%d", n)))
		return nil
	})
	cl := mr.NewCluster(8, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mr.Run(cl, mr.Job{Name: "bench", Input: input, Mapper: mapper, Reducer: reducer}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColdStartDataset builds the shared cold-start corpus once.
func benchColdStartDataset(n int) *Dataset {
	entities := benchIndexEntities(n)
	d := NewDataset()
	for i, counts := range entities {
		d.Add(fmt.Sprintf("entity-%d", i), counts)
	}
	return d
}

// BenchmarkBulkBuild measures the offline cold-start path: materialize a
// corpus as one snapshot file (one batch job, no WAL appends) and open
// it. Compare with BenchmarkColdStartPerAdd on the same corpus.
func BenchmarkBulkBuild(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		d := benchColdStartDataset(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir := b.TempDir() + "/idx"
				if _, err := BuildIndexFiles(d, IndexOptions{Measure: "ruzicka", Dir: dir}); err != nil {
					b.Fatal(err)
				}
				ix, err := OpenIndex(IndexOptions{Measure: "ruzicka", Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if ix.Len() != n {
					b.Fatalf("len %d", ix.Len())
				}
				ix.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entities/s")
		})
	}
}

// BenchmarkColdStartPerAdd measures the same cold start through the
// serving path: every entity WAL-appended and inserted one by one, with
// the default snapshot cadence a daemon runs under — the only bootstrap
// that existed before the bulk builder. The periodic snapshots make
// this path superlinear in corpus size (every 4096 Adds rewrite the
// index so far), which is exactly why bulk loads do not belong on it.
func BenchmarkColdStartPerAdd(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		d := benchColdStartDataset(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := NewIndex(IndexOptions{Measure: "ruzicka", Dir: b.TempDir() + "/idx"})
				if err != nil {
					b.Fatal(err)
				}
				var addErr error
				d.Each(func(entity string, counts map[string]uint32) bool {
					addErr = ix.Add(entity, counts)
					return addErr == nil
				})
				if addErr != nil {
					b.Fatal(addErr)
				}
				if ix.Len() != n {
					b.Fatalf("len %d", ix.Len())
				}
				ix.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entities/s")
		})
	}
}

// BenchmarkIndexOpen measures opening an already-built data dir — the
// steady-state cold start of a restarting daemon. Snapshots load
// through the sealed bulk path (no WAL replay, no upsert machinery),
// so this is the number a -load-every-start bootstrap is up against.
func BenchmarkIndexOpen(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		d := benchColdStartDataset(n)
		dir := b.TempDir() + "/idx"
		opts := IndexOptions{Measure: "ruzicka", Dir: dir}
		if _, err := BuildIndexFiles(d, opts); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := OpenIndex(opts)
				if err != nil {
					b.Fatal(err)
				}
				if ix.Len() != n {
					b.Fatalf("len %d", ix.Len())
				}
				ix.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entities/s")
		})
	}
}

// benchNamedIndex builds a volatile, uncached index of n
// one-element entities "entity-<i>" for the benchmarks and gates whose
// cost may depend on how many names are indexed and on nothing else
// about them: no entity carries the element "absent", so a query for it
// is answered by the kNN pad alone.
func benchNamedIndex(tb testing.TB, n int) *Index {
	tb.Helper()
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka", CacheSize: -1})
	if err != nil {
		tb.Fatal(err)
	}
	muts := make([]Mutation, 0, applyChunk)
	for i := 0; i < n; i++ {
		muts = append(muts, Mutation{Op: OpAdd, Entity: fmt.Sprintf("entity-%d", i),
			Elements: map[string]uint32{fmt.Sprintf("e%d", i%4096): 1}})
		if len(muts) == cap(muts) || i == n-1 {
			if _, err := ix.Apply(context.Background(), muts); err != nil {
				tb.Fatal(err)
			}
			muts = muts[:0]
		}
	}
	return ix
}

// benchNameCounts are the index sizes the name-order costs are compared
// at: a padded kNN and the Add of a new name must each cost about the
// same at both (within 2×).
var benchNameCounts = []int{20_000, 500_000}

// BenchmarkIndexAddNewName measures Add of a name the index does not
// hold, landing all over the name order, into an index of n names: the
// cost of keeping the names ordered for the kNN pad rides on it.
func BenchmarkIndexAddNewName(b *testing.B) {
	for _, n := range benchNameCounts {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ix := benchNamedIndex(b, n)
			defer ix.Close()
			counts := map[string]uint32{"e7": 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustAdd(b, ix, fmt.Sprintf("entity-%d+%d", i*7919%n, i), counts)
			}
		})
	}
}

// TestKNNPadAllocsIndependentOfLen is the allocation gate on the kNN
// pad: what a wholly padded query allocates — in count and in bytes —
// is the same over 16× the names, because the pad reads the first k
// names off the ordered name table and copies nothing else.
func TestKNNPadAllocsIndependentOfLen(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	measure := func(n int) (allocs float64, bytes uint64) {
		ix := benchNamedIndex(t, n)
		defer ix.Close()
		query := func() {
			if ns := ix.QueryKNN(map[string]uint32{"absent": 1}, 10); len(ns) != 10 {
				t.Fatalf("got %d neighbors", len(ns))
			}
		}
		const runs = 100
		allocs = testing.AllocsPerRun(runs, query)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(1_000)
	largeAllocs, largeBytes := measure(16_000)
	t.Logf("padded kNN, k=10: %v allocs / %d B at 1k names, %v allocs / %d B at 16k", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs || largeBytes > smallBytes+smallBytes/4 {
		t.Errorf("padded kNN allocations grow with Len(): %v allocs / %d B at 1k names, %v allocs / %d B at 16k",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}

// BenchmarkQueryKNN measures the online kNN read path: the same
// 10k-entity dataset as BenchmarkIndexTopK, k=10 nearest per query,
// uncached (the inner pass is QueryTopK's). The padded sub-benchmarks
// ask for the 10 nearest to a query that shares no element with the
// corpus — the whole answer is pad — at two index sizes.
func BenchmarkQueryKNN(b *testing.B) {
	for _, n := range benchNameCounts {
		b.Run(fmt.Sprintf("padded/n=%d", n), func(b *testing.B) {
			ix := benchNamedIndex(b, n)
			defer ix.Close()
			query := map[string]uint32{"absent": 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ns := ix.QueryKNN(query, 10); len(ns) != 10 {
					b.Fatalf("got %d neighbors", len(ns))
				}
			}
		})
	}
	entities := benchIndexEntities(10000)
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka", CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	for i, counts := range entities {
		mustAdd(b, ix, fmt.Sprintf("entity-%d", i), counts)
	}
	b.Run("overlap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ns := ix.QueryKNN(entities[i%len(entities)], 10); len(ns) != 10 {
				b.Fatalf("got %d neighbors", len(ns))
			}
		}
	})
}

// BenchmarkAllKNN measures the batch MapReduce pipeline end to end:
// grouping, bound computation, and refine over a 2000-entity dataset,
// k=10 lists for every entity per iteration. The entities/s metric is
// the per-run amortized rate the CLI path sustains.
func BenchmarkAllKNN(b *testing.B) {
	const n = 2000
	entities := benchIndexEntities(n)
	d := NewDataset()
	for i, counts := range entities {
		d.Add(fmt.Sprintf("entity-%d", i), counts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AllKNN(d, 10, Options{Measure: "ruzicka"})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Neighbors) != n {
			b.Fatalf("lists for %d entities, want %d", len(res.Neighbors), n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entities/s")
}
