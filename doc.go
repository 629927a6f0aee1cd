// Package vsmartjoin is a Go implementation of V-SMART-Join (Metwally &
// Faloutsos, PVLDB 2012): exact all-pair similarity joins of sets,
// multisets and vectors on MapReduce, plus an online index that serves
// the same similarities to queries.
//
// An entity is a named multiset: elements with multiplicities, such as
// the cookies seen with an IP address or the shingles of a document. A
// Dataset holds entities for the batch paths; Add merges a repeated name
// by summing its counts.
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
// # AllPairs
//
// AllPairs returns every pair of entities whose similarity under
// Options.Measure is at least Options.Threshold, exactly, sorted by
// entity names. A threshold of 0 is real (every pair sharing an
// element); a negative one means DefaultThreshold; one above 1, or NaN,
// is an error. The join runs the paper's two stages, joining (with
// Options.Algorithm: online-aggregation, lookup or sharding) and then
// similarity, on an in-process MapReduce engine whose cost model prices
// a cluster of Options.Machines machines. Result.Stats reports the
// simulated seconds, the real seconds and the candidate funnel; the
// pairs do not depend on the algorithm, the machine count or
// Options.ShuffleBufferBytes. AllKNN computes every entity's k nearest
// neighbors and reads only Options.Measure.
//
// # Index
//
// An Index answers similarity queries against a dataset that changes
// while it serves. NewIndex creates one, OpenIndex reopens a durable
// one, BuildIndex loads a Dataset. Mutations and queries may run
// concurrently. Every write is a batch of Mutation values passed to
// Index.Apply, applied in order and all or nothing, repeated upserts of
// an entity coalescing last-write-wins; Add, Remove, AddBatch,
// RemoveBatch and AddDataset build such batches. Index.Add replaces an
// entity's multiset, where Dataset.Add merges.
//
// # Query
//
// Every online query is a Query value: an indexed Entity (excluded from
// its own answer) or ad-hoc Elements, a Kind (KindThreshold, KindTopK or
// KindKNN) and its Threshold or K. Index.Query and Cluster.Query answer
// it; QueryThreshold, QueryEntity, QueryTopK, QueryKNN and
// QueryKNNEntity are conveniences over it. A query fails on a threshold
// outside [0, 1], a K that is not positive, both subjects set, or an
// Entity that is not indexed. KindThreshold returns every entity at or
// above the threshold; KindTopK the K most similar among those sharing
// an element; KindKNN the K nearest under the distance 1 − similarity,
// padded with non-overlapping entities at distance exactly 1 when fewer
// than K overlap.
//
// The canonical order: matches by similarity descending, neighbors by
// distance ascending, entity names ascending on ties, and the smallest
// names win a tie at the K-th place. An answer is therefore a function
// of the indexed (name, multiset) pairs alone: an Index and a Cluster
// of any shape holding the same entities answer byte for byte alike,
// and AllKNN's lists are QueryKNNEntity's answers. Answers are
// linearizable: a query reads the index in one read-lock hold, from its
// subject to its resolved names, and every mutation takes the write
// lock, so each answer is the index as it stood between two Apply calls
// during the query. The result cache (IndexOptions.CacheSize) is invalidated by
// every mutation and never serves a stale answer. It stores an answer
// on its query's second miss, so a query asked once costs the cache
// nothing and one asked again is served from the third time on.
//
// # Durability
//
// IndexOptions.Dir makes an index durable: each mutation is appended to
// the index's write-ahead log before it is applied, and once the log
// reaches the size of the snapshot before it (at least 1 MiB) a new
// snapshot replaces the log.
// Reopening recovers every mutation the log holds up to its first torn
// frame, so the recovered state is always a prefix of the applied
// history. IndexOptions.Durability sets what an acknowledgement means:
//
//   - DurabilityOS (the default): the record has reached the operating
//     system. A killed process loses nothing; a machine crash can lose
//     the un-fsynced tail of the log.
//   - DurabilitySync: the record is fsynced. The first waiting writer
//     fsyncs at once, and the writers that append during that fsync
//     share the next one (group commit).
//
// In both modes a mutation is visible to queries before its commit wait
// ends, so an error from that wait means applied but not guaranteed
// durable. Close writes a final snapshot; a durable index then refuses
// mutations with ErrIndexClosed. BuildIndexFiles writes a durable index
// directory straight from a Dataset, byte for byte the snapshot an
// Index holding the same entities would write.
//
// # Cluster
//
// A Cluster routes one logical index over vsmartjoind node daemons.
// Each entity belongs to the partition PartitionOfEntity names; a write
// succeeds when a majority of that partition's replicas acknowledge it,
// and writes a replica missed are re-sent in the background. A query
// needs one answering replica per partition, or it fails with
// ErrClusterUnavailable rather than return a partial answer.
// BuildClusterFiles carves a Dataset into per-node index directories
// along the same hash.
//
// README.md covers operation: the command-line tools, the daemon's
// HTTP surface, the data-directory layout, the measurements and the
// repository layout.
package vsmartjoin
