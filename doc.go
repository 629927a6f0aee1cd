// Package vsmartjoin is a from-scratch Go implementation of V-SMART-Join
// (Metwally & Faloutsos, PVLDB 2012): a scalable MapReduce framework for
// exact all-pair similarity joins of sets, multisets, and vectors.
//
// The package finds every pair of entities whose similarity under a
// nominal similarity measure (Ruzicka, Jaccard, Dice, cosine, ...) meets a
// threshold. Entities are multisets — bags of elements with
// multiplicities — such as the cookies observed with an IP address, the
// shingles of a document, or the sparse coordinates of a vector.
//
// The join executes on a simulated shared-nothing MapReduce cluster that
// really runs the map/combine/shuffle/reduce pipeline in-process while
// accounting the wall-clock a cluster of the configured size would have
// spent. Three joining algorithms from the paper are provided
// (Online-Aggregation, Lookup, and Sharding), plus the VCL prefix-filter
// baseline in the internal packages. Beyond the paper, the similarity
// phase never emits a candidate pair whose two sizes alone keep it below
// the threshold — the length filter the online index applies too — so
// results are unchanged and Stats.LengthPruned counts what was skipped.
//
// Quick start:
//
//	d := vsmartjoin.NewDataset()
//	d.Add("ip-1", map[string]uint32{"cookie-a": 3, "cookie-b": 1})
//	d.Add("ip-2", map[string]uint32{"cookie-a": 2, "cookie-b": 2})
//	d.Add("ip-3", map[string]uint32{"cookie-z": 9})
//	res, err := vsmartjoin.AllPairs(d, vsmartjoin.Options{
//		Measure:   "ruzicka",
//		Threshold: 0.5,
//	})
//	if err != nil { ... }
//	for _, p := range res.Pairs {
//		fmt.Printf("%s ~ %s: %.3f\n", p.A, p.B, p.Similarity)
//	}
//
// # Online serving
//
// AllPairs answers "find every similar pair, once"; Index answers "what
// is similar to this, right now" against a dataset that keeps changing.
// It is an incremental inverted index with measure-derived prefix and
// length filtering, safe for concurrent mutation and queries:
//
//	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
//	ix.Add("ip-1", map[string]uint32{"cookie-a": 3, "cookie-b": 1})
//	matches, err := ix.QueryThreshold(map[string]uint32{"cookie-a": 3}, 0.5)
//	top := ix.QueryTopK(map[string]uint32{"cookie-a": 3}, 10)
//
// Every online query — threshold, top-k or kNN, by element multiset or
// by indexed entity — is one Query value answered by Index.Query (and,
// over a cluster, by Cluster.Query); the named methods are conveniences
// over it.
//
// BuildIndex bulk-loads the same Dataset AllPairs consumes, and the two
// paths return provably consistent results (see api_diff_test.go). The
// cmd/vsmartjoind daemon serves an Index over HTTP, and examples/serving
// is a worked walkthrough.
//
// # Durability
//
// An Index is one partition in one process; spreading entities over
// machines is Cluster's job. IndexOptions configures durability:
//
//   - Measure fixes the similarity measure ("ruzicka" by default); a
//     durable index records it in every snapshot and refuses to reopen
//     under a different one.
//
//   - Dir makes the index durable: every mutation is appended to the
//     index's one write-ahead log before it is applied, so a killed
//     process — even one dying mid-append, leaving a torn frame —
//     reopens into exactly its prior state (internal/wal). The dir
//     holds one snapshot and one log.
//
//   - SnapshotEvery sets how many logged mutations trigger an automatic
//     snapshot, which truncates the log; Snapshot forces one and Close
//     writes a final one.
//
//   - Durability picks the acknowledgement contract: DurabilityOS (the
//     default) acknowledges once the WAL append reaches the OS, while
//     DurabilitySync makes every acknowledgement wait for an fsync. The
//     fsync is group-committed — one sync covers every append that
//     arrived while the previous sync was in flight — so the cost
//     amortizes over concurrent writers instead of multiplying.
//
//   - GroupCommitWindow bounds how long the committer waits to coalesce
//     more appends into one fsync (default 200µs; only meaningful under
//     DurabilitySync).
//
// A production-shaped serving index combines them:
//
//	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{
//		Measure:       "ruzicka",
//		Dir:           "/var/lib/vsmartjoin",
//		SnapshotEvery: 4096,
//	})
//	if err != nil { ... }
//	defer ix.Close()
//
// # Mutations
//
// Every write is a Mutation — an upsert (OpAdd) or a removal (OpRemove)
// of one named entity — and every write goes through one method,
// Index.Apply (Cluster.Apply over a cluster), which takes a batch of
// them: the batch is appended to the log as a single write and applied
// under one lock acquisition, all or nothing, with last-write-wins for
// repeated upserts of an entity inside a batch.
// Add, Remove, AddBatch and RemoveBatch are conveniences that build the
// batch — a batch of one pays one lock acquisition and one WAL append.
// A writer with many mutations on its hands batches them itself: the
// wider the batch, the fewer lock acquisitions, log writes and fsyncs
// per mutation (BenchmarkWriteStorm). After Close a durable index
// refuses mutations with ErrIndexClosed; a volatile index has nothing to
// close and keeps accepting them.
//
// Queries keep their lock-free read contract throughout: a batch
// becomes visible atomically, and under DurabilitySync it is
// acknowledged only after its group-committed fsync. IndexStats
// reports the moving parts — WALBatchSize and WALGroupCommitSize
// histograms, WALRecords/WALFsyncs counters (their ratio is the
// fsyncs-per-mutation amortization) and WALCommitWait latency.
//
// # Bulk building
//
// Cold-starting a large corpus through Apply would write every entity
// to a WAL first — a million logged records before the first query.
// BuildIndexFiles instead writes the index's snapshot file directly, in
// one pass over the Dataset with IDs in first-seen order, as Add would
// assign them; no MapReduce job runs. OpenIndex then loads the result
// with zero WAL records to replay, through a sealed bulk-load path that
// skips the upsert machinery entirely:
//
//	_, err := vsmartjoin.BuildIndexFiles(d, vsmartjoin.IndexOptions{
//		Measure: "ruzicka",
//		Dir:     "/var/lib/vsmartjoin",
//	})
//	if err != nil { ... }
//	ix, err := vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{Dir: "/var/lib/vsmartjoin"})
//
// A bulk-built directory is indistinguishable from one the serving path
// wrote: it answers queries identically to an index built by the same
// Adds (down to tie-breaks) and accepts further durable mutations, with
// the write-ahead log resuming on top of the built snapshot — which is
// byte for byte the snapshot such an index would write. The
// cmd/vsmartjoin -build-index flag exposes the builder on the command
// line, and cmd/vsmartjoind bootstraps through it when -load points at
// a trace and -data-dir at a directory with no index yet.
//
// # Query performance and the result cache
//
// The query hot path is allocation-free at steady state: per-query
// scratch is pooled and reused, so sustained QueryThreshold/QueryTopK
// traffic settles at zero allocations per operation inside the index
// engine (the benchmark's index.allocs_per_op; see benchmark/README.md).
//
// On top of that, Index keeps a bounded LRU cache of complete query
// results, keyed by the measure, the query as the index interned it
// (known elements by ID, elements it has never seen by their counts
// alone), and the threshold or k. IndexOptions.CacheSize bounds it: 0
// means the default of 1024 cached results, a negative value disables
// caching entirely, and any positive value is the maximum number of
// results retained. The cache is invalidated by generation: every Add or
// Remove bumps an internal generation counter and cached entries only
// answer queries at the generation they were computed under, so a
// cached answer is never stale — a mutation racing a lookup can only
// demote a hit to a recomputation. Cached results are defensive
// copies; callers may freely modify returned slices.
//
// IndexStats reports cache effectiveness alongside the engine
// counters: CacheHits and CacheMisses count lookups against the cache
// (hits return before reaching the engine, so they do not advance
// Queries or the funnel counters), and CacheEntries is the current
// resident size. The vsmartjoind daemon surfaces the same fields in
// its /stats endpoint, and its -debug-addr flag serves net/http/pprof
// on a private listener for live profiling.
//
// # kNN queries
//
// The third query shape is k-nearest-neighbor under the distance
// 1 − similarity. QueryKNN returns the k nearest indexed entities to a
// query multiset, nearest first with entity names ascending on
// distance ties; QueryKNNEntity asks the same of an indexed entity's
// own elements, excluding the entity from its list. kNN has no
// similarity cut-off: entities sharing nothing with the query sit at
// distance exactly 1 and legitimately fill a list when fewer than k
// entities overlap, smallest names first; the index keeps its entity
// names ordered as they are added and removed, so that pad costs O(k)
// whatever the index holds.
//
//	ns := ix.QueryKNN(map[string]uint32{"cookie-a": 3}, 10)
//	for _, n := range ns {
//		fmt.Printf("%s at distance %.3f\n", n.Entity, n.Distance)
//	}
//
// AllKNN is the batch counterpart — every entity's exact k nearest
// lists at once (cmd/vsmartjoin -knn on the command line). It loads the
// dataset into a volatile Index and runs QueryKNNEntity for every
// entity on GOMAXPROCS goroutines, so batch and online lists are the
// same answer by construction; knn_diff_test.go gates both against a
// brute-force oracle.
//
// Candidate generation has one path: the prefix-filter
// probe of the inverted index, for threshold, top-k and kNN queries
// alike. README.md carries the measurements that retired a scan and a
// MinHash-seeded alternative, and the bar for bringing a planner back.
//
// # Cluster serving
//
// Cluster scales the same serving surface across machines: it is a
// stateless router that treats N vsmartjoind node daemons as
// partitions of one logical index, mirroring Index's mutation and
// query API:
//
//	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
//		Nodes: [][]string{
//			{"http://10.0.0.1:8321", "http://10.0.0.2:8321"}, // partition 0 replicas
//			{"http://10.0.0.3:8321", "http://10.0.0.4:8321"}, // partition 1 replicas
//		},
//	})
//	if err != nil { ... }
//	defer c.Close()
//	err = c.Add("ip-1", map[string]uint32{"cookie-a": 3})
//	matches, err := c.QueryTopK(map[string]uint32{"cookie-a": 3}, 10)
//
// Entities route to partitions by a hash of their name
// (PartitionOfEntity), writes replicate to every replica of the owner
// partition and succeed at majority quorum, and queries scatter to one
// healthy replica per partition — with per-node timeouts, failover,
// and hedged retry — then merge under the canonical result ordering
// (similarity descending, entity name ascending on ties). Because that
// ordering is a pure function of the stored entities, a Cluster of any
// shape answers byte-identically to a single Index holding the same
// data; cluster_diff_test.go gates exactly that. Writes that miss a
// replica are re-driven by a background anti-entropy pass, and
// BuildClusterFiles carves a bulk-built corpus into per-node
// directories along the same routing hash. The router reaches its
// nodes over one binary hop — framed requests on a few persistent
// connections per node, opened by an HTTP/1.1 Upgrade (GET /peer) on
// the node's own listener — while the vsmartjoind -cluster flag serves
// a Cluster over the identical JSON surface a node exposes, so clients
// and load balancers cannot tell router from node. There is one Cluster
// type: Cluster, ClusterOptions, ClusterStats and ClusterMetrics are
// aliases of internal/cluster's Cluster, Config, Stats and Metrics, so
// the daemon's router and this API are the same code.
//
// # Observability
//
// Every layer is instrumented through internal/metrics — atomic
// counters and fixed-bucket log-spaced latency histograms, cheap
// enough (one clock read, three atomic adds, zero allocations) that
// the query hot path stays 0 allocs/op with instrumentation on.
// IndexStats carries latency summaries (count, mean, p50/p99/p999) for
// the uncached query path and WAL append/fsync stalls; ClusterStats
// adds quorum-write and scatter-gather query latency, hedge-fired/
// hedge-won counts, and the current anti-entropy repair backlog:
//
//	st := ix.Stats()
//	fmt.Printf("p99 query: %.2fms\n", st.QueryLatency.P99Ns/1e6)
//
// The vsmartjoind daemon exposes the same data two ways: GET /stats
// (the stats structs as JSON) and GET /metrics (Prometheus text
// exposition, hand-rolled, no client dependency) on both node and
// router modes. Every request carries an X-Vsmart-Request-Id header —
// assigned if absent, echoed on the response, and propagated from the
// router to its node sub-requests (WithRequestID attaches one to a
// Cluster call's context) — and a query with "debug": true returns
// per-stage timings alongside the matches. The daemon sheds load
// predictably: -max-inflight bounds concurrently served requests, and
// beyond the bound requests are answered 429 + Retry-After instead of
// queueing (probes and the metrics scrape are exempt). The repository's
// benchmark (BENCHMARK.json, bash benchmark/run.sh) measures all of it
// end to end and layer by layer.
//
// See the README's "Algorithms" and "The simulated cluster" sections for
// the architecture; `go run ./cmd/experiments` reproduces the paper's
// evaluation.
package vsmartjoin
