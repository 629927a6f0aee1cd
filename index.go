package vsmartjoin

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsmartjoin/internal/metrics"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/shard"
	"vsmartjoin/internal/similarity"
	"vsmartjoin/internal/wal"
)

// ErrNotDurable is returned by Index.Snapshot on an index opened
// without a Dir: there is nowhere to snapshot to.
var ErrNotDurable = errors.New("vsmartjoin: index has no durability directory")

// ErrIndexClosed is returned by mutations and snapshots of a durable
// index after Close. A volatile index has nothing to close: Close is a
// no-op on it and it keeps accepting mutations.
var ErrIndexClosed = errors.New("vsmartjoin: index is closed")

// ErrNoIndex is returned by OpenIndex when the directory holds no index
// (missing, empty, or never built). NewIndex treats the same situation
// as "create a fresh one".
var ErrNoIndex = errors.New("vsmartjoin: directory holds no index")

// defaultSnapshotEvery is the automatic snapshot cadence: the number of
// mutations logged after which the index cuts a snapshot and truncates
// its write-ahead log.
const defaultSnapshotEvery = 4096

// maxShards bounds IndexOptions.Shards: every query visits every shard,
// and past this the walk costs far more than any shard saves.
const maxShards = 1024

// defaultGroupCommitWindow is how long the group committer waits after
// the first pending record for neighbors to pile onto the same fsync
// (DurabilitySync only). Small enough to stay invisible next to the
// fsync itself, large enough to absorb a burst of concurrent writers.
const defaultGroupCommitWindow = 200 * time.Microsecond

// applyChunk caps how many mutations AddDataset, walking a corpus,
// passes to one Apply call: the batch one WAL append covers.
const applyChunk = 256

// Durability selects how a durable index acknowledges mutations.
type Durability int

const (
	// DurabilityOS (the default) pushes every WAL record to the
	// operating system before the mutation is acknowledged but fsyncs
	// only at snapshots and Close: a process crash loses nothing, a
	// machine crash can lose the un-fsynced tail of the log.
	DurabilityOS Durability = iota
	// DurabilitySync acknowledges a mutation only after an fsync covers
	// its WAL record. Fsyncs are group-committed: a committer goroutine
	// coalesces the fsyncs of concurrent mutations into one, so the
	// per-mutation cost is an fsync amortized over every write in the
	// same commit window, not an fsync each. Requires Dir.
	DurabilitySync
)

// IndexOptions configures NewIndex, OpenIndex, BuildIndex, and
// BuildIndexFiles.
type IndexOptions struct {
	// Measure is the similarity measure name (default "ruzicka"); it is
	// fixed for the life of the index because posting-list pruning bounds
	// are measure-specific. For a durable index the measure is recorded
	// in every snapshot and reopening under a different one is refused.
	Measure string

	// Shards is the number of hash-partitioned sub-indexes, in
	// [0, 1024], 0 = default (1, or the count an existing data dir
	// records). Shards are an in-memory layout for the query walk:
	// entities are routed to shards by their ID and a query visits the
	// shards one after another on its caller's goroutine, with results
	// identical to one shard. Writes serialize on the index either way,
	// so sharding buys no write concurrency; README "Shard-count
	// guidance" has what a second shard costs a query.
	//
	// A durable index keeps one write-ahead log whatever its shard
	// count, and its snapshots record the count only as a default:
	// opening an existing data dir with Shards == 0 adopts the recorded
	// count, and any other count re-partitions the entities on load.
	Shards int

	// Dir, when non-empty, makes the index durable: every Add/Remove is
	// appended to the index's write-ahead log under Dir before it is
	// applied, and periodic snapshots truncate the log. NewIndex
	// recovers the prior state (snapshot load + log replay, tolerating a
	// torn final frame) from a Dir that already holds one, and otherwise
	// creates it with an empty snapshot recording Measure and Shards;
	// OpenIndex does the same but refuses to start fresh. Empty means
	// fully in-memory. Dir holds one generation, snap-<gen> plus
	// wal-<gen>, at any shard count — the same files the bulk builder
	// (BuildIndexFiles) writes, so a batch-built dir and a
	// serving-written dir are interchangeable.
	Dir string

	// SnapshotEvery is the number of mutations logged between automatic
	// snapshots of the index (default 4096). Negative disables automatic
	// snapshots — the log then grows until Snapshot or Close. Ignored
	// without Dir.
	SnapshotEvery int

	// Durability selects the acknowledgement contract of a durable
	// index (requires Dir): DurabilityOS (default) never fsyncs until a
	// snapshot, DurabilitySync group-commits an fsync before every
	// acknowledgement. Ignored without Dir.
	Durability Durability

	// GroupCommitWindow is how long the group committer waits after the
	// first pending WAL record for more to join the same fsync
	// (DurabilitySync only; default 200µs, negative commits
	// immediately). A longer window batches harder under bursty load at
	// the cost of per-mutation latency.
	GroupCommitWindow time.Duration

	// CacheSize bounds the query result cache: a per-index LRU over
	// canonicalized queries ((measure, query elements, t or k) keys)
	// that short-circuits repeated queries — the head of a zipf-skewed
	// query population — without ever serving a stale answer: every
	// Add/Remove bumps the index generation and a cached entry only hits
	// while its stamped generation is current. 0 means the default
	// (1024 entries); negative disables caching entirely. Hit/miss
	// traffic is reported by IndexStats.CacheHits/CacheMisses.
	CacheSize int

	// BuildShuffleBufferBytes caps per-map-task shuffle memory of the
	// offline BuildIndexFiles job before sorted runs spill to disk
	// (0 = all in memory); see Options.ShuffleBufferBytes for the
	// mechanism. It tunes only the bulk build, never the index the
	// files open into, and is ignored by NewIndex/OpenIndex/BuildIndex.
	BuildShuffleBufferBytes int64
}

// IndexStats snapshots the size and traffic counters of an Index; see
// the field docs on internal/index.Stats for the pruning pipeline the
// Probes → Candidates → Verified → Results funnel describes (Probes
// includes the postings walked only to finish admitted candidates'
// partial sums; Verified counts similarities computed). Entities,
// Adds, Removes and the query counters are global; Elements and
// Postings are summed across shards (an element present in several
// shards counts once per shard). Generation is the write-ahead log's
// generation (0 for a volatile index); bulk-built and freshly created
// directories open at generation 1.
type IndexStats struct {
	Measure    string `json:"measure"`
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
	Entities   int    `json:"entities"`
	Elements   int    `json:"elements"`
	Postings   int    `json:"postings"`

	Adds        int64 `json:"adds"`
	Removes     int64 `json:"removes"`
	Compactions int64 `json:"compactions"`

	Queries      int64 `json:"queries"`
	Probes       int64 `json:"probes"`
	Candidates   int64 `json:"candidates"`
	LengthPruned int64 `json:"length_pruned"`
	Verified     int64 `json:"verified"`
	Results      int64 `json:"results"`

	// CacheHits/CacheMisses count result-cache traffic (both zero when
	// the cache is disabled via CacheSize < 0); CacheEntries is the
	// current number of cached answers. A cache hit bypasses the inner
	// index entirely, so it advances none of the funnel counters
	// (Queries included) — with the cache on, public query traffic is
	// CacheHits + CacheMisses and the funnel keeps describing real
	// pruning work.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// Latency digests of the serving path, in nanoseconds. QueryLatency
	// covers uncached public queries end to end, sampled one query in
	// eight so the timing stays off the hot path (cache hits are counted
	// above but never timed); WALAppend/WALFsync are durability stalls
	// of the write-ahead log (empty for a volatile index);
	// WALCommitWait is how long acknowledged mutations waited for their
	// group commit (DurabilitySync only). Full-resolution histograms
	// back Index.Metrics and GET /metrics.
	QueryLatency  LatencySummary `json:"query_latency"`
	WALAppend     LatencySummary `json:"wal_append"`
	WALFsync      LatencySummary `json:"wal_fsync"`
	WALCommitWait LatencySummary `json:"wal_commit_wait"`

	// Write-batching telemetry. WALBatchSize is the records-per-append
	// distribution (every append is a batch, so a lone Add or Remove
	// shows up as a batch of one); WALGroupCommitSize is records per fsync
	// (the group-commit amortization factor); WALRecords and WALFsyncs
	// are the totals whose ratio is the fsyncs-per-mutation cost.
	WALBatchSize       SizeSummary `json:"wal_batch_size"`
	WALGroupCommitSize SizeSummary `json:"wal_group_commit_size"`
	WALRecords         int64       `json:"wal_records"`
	WALFsyncs          int64       `json:"wal_fsyncs"`
}

// Index is the online counterpart of AllPairs: an incremental inverted
// similarity index serving threshold, top-k and kNN queries (Query, in
// query.go) against a live dataset. Entities can be added and removed
// at any time, concurrently with queries; see internal/index for the
// data structure and locking design, internal/shard for the hash
// partitioning, and internal/wal for the durability layer.
// Use AllPairs for periodic full joins and an Index for interactive
// lookups against the same entities.
type Index struct {
	measure similarity.Measure
	inner   *shard.Set

	// mu guards the name tables and serializes every mutation, logged or
	// not, and every snapshot; the shards have their own locks, always
	// nested inside mu, so the nesting cannot deadlock.
	mu     sync.RWMutex
	dict   *multiset.Dict
	byName map[string]multiset.ID
	names  map[multiset.ID]string
	order  nameTable // the keys of byName, ascending: the kNN pad's read order
	nextID multiset.ID

	log           *wal.Log // nil for a volatile index; set at construction, never replaced
	snapshotEvery int
	logged        int // mutations since the last snapshot; guarded by mu
	closed        bool

	// gen counts mutations; every Add/Remove bumps it, invalidating all
	// result-cache entries stamped with an earlier value. cache is nil
	// when IndexOptions.CacheSize is negative.
	gen   atomic.Uint64
	cache *queryCache

	// queryLatency times uncached public queries end to end (probe,
	// verify, resolve), sampled one query in eight per pooled query
	// buffer (queryBuf.sample) so neither the clock reads nor the
	// histogram's shared counters ride the hot path. The stamp is taken
	// only after a cache miss — hits are counted by the cache, not
	// timed here.
	queryLatency metrics.Histogram
}

// NewIndex returns an index configured by opts. With a Dir it opens (or
// creates) the durability directory and recovers any prior state, so a
// killed process restarts into exactly the entities it had indexed.
func NewIndex(opts IndexOptions) (*Index, error) {
	return newIndex(opts, true)
}

// OpenIndex opens an existing durable index — typically one built
// offline by BuildIndexFiles or vsmartjoin -build-index. It behaves
// exactly like NewIndex with the same options except that a directory
// holding no index is ErrNoIndex instead of a fresh empty index, so a
// misspelled path cannot silently serve nothing. A freshly bulk-built
// dir opens with zero WAL records to replay: the snapshots load through
// the sealed bulk path and the index is immediately ready for queries
// and for further durable Add/Remove.
func OpenIndex(opts IndexOptions) (*Index, error) {
	if opts.Dir == "" {
		return nil, errors.New("vsmartjoin: OpenIndex requires Dir")
	}
	return newIndex(opts, false)
}

func newIndex(opts IndexOptions, create bool) (*Index, error) {
	name := opts.Measure
	if name == "" {
		name = "ruzicka"
	}
	m, err := similarity.ByName(name)
	if err != nil {
		return nil, err
	}
	if opts.Shards < 0 || opts.Shards > maxShards {
		return nil, fmt.Errorf("vsmartjoin: shard count %d outside [0, %d], 0 = default", opts.Shards, maxShards)
	}
	snapshotEvery := opts.SnapshotEvery
	if snapshotEvery == 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	var walOpts []wal.Option
	switch opts.Durability {
	case DurabilityOS:
	case DurabilitySync:
		if opts.Dir == "" {
			return nil, errors.New("vsmartjoin: DurabilitySync requires Dir")
		}
		gcWindow := opts.GroupCommitWindow
		if gcWindow == 0 {
			gcWindow = defaultGroupCommitWindow
		}
		walOpts = append(walOpts, wal.WithGroupCommit(gcWindow))
	default:
		return nil, fmt.Errorf("vsmartjoin: unknown durability %d", opts.Durability)
	}
	ix := &Index{
		measure:       m,
		dict:          multiset.NewDict(),
		byName:        make(map[string]multiset.ID),
		names:         make(map[multiset.ID]string),
		nextID:        1,
		snapshotEvery: snapshotEvery,
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	if cacheSize > 0 {
		ix.cache = newQueryCache(cacheSize)
	}
	if opts.Dir == "" {
		ix.inner = shard.New(m, opts.Shards)
		return ix, nil
	}
	exists, err := wal.Exists(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
	}
	if !exists && !create {
		return nil, fmt.Errorf("%w: %s", ErrNoIndex, opts.Dir)
	}
	if err := ix.openLog(opts.Dir, opts.Shards, !exists, walOpts); err != nil {
		if ix.log != nil {
			//lint:vsmart-allow walerr best-effort cleanup on the constructor's error path; the openLog error is what the caller gets
			ix.log.Close()
		}
		return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
	}
	return ix, nil
}

// openLog opens the index's one write-ahead log in dir and recovers it.
// A fresh dir first gets an empty generation-1 snapshot recording the
// measure and shard count, so every data dir is one snapshot plus one
// WAL from the start and is never reopened under another measure.
// Recovery replays the snapshot and then the WAL, in the one order they
// were logged, into the name tables and one entity table; each entity
// is then routed to its shard by ID and every shard is bulk-loaded
// through the sealed internal/index path. shards == 0 adopts the count
// the snapshot records; any other count re-partitions. The index is not
// yet shared, so no locking is needed here.
func (ix *Index) openLog(dir string, shards int, fresh bool, opts []wal.Option) error {
	if fresh {
		err := wal.WriteSnapshot(dir, 1, ix.measure.Name(), max(shards, 1), func(func(wal.Record) error) error { return nil })
		if err != nil {
			return err
		}
	}
	sets := make(map[multiset.ID]multiset.Multiset)
	apply := func(rec wal.Record) error {
		// Every record retires the entity that holds the name, if any;
		// an OpAdd then installs its own (a replayed upsert keeps its ID).
		if id, ok := ix.byName[rec.Entity]; ok {
			delete(sets, id)
			delete(ix.names, id)
			delete(ix.byName, rec.Entity)
		}
		if rec.Op != wal.OpAdd {
			return nil
		}
		id := multiset.ID(rec.ID)
		if id == 0 {
			return fmt.Errorf("recover: entity %q has no ID", rec.Entity)
		}
		sets[id] = multiset.New(id, ix.internElements(rec.Elements))
		ix.byName[rec.Entity] = id
		ix.names[id] = rec.Entity
		ix.nextID = max(ix.nextID, id+1)
		return nil
	}
	l, err := wal.Open(dir, ix.measure.Name(), apply, apply, opts...)
	if err != nil {
		return err
	}
	ix.log = l
	if shards == 0 {
		shards = l.Shards()
	}
	ix.inner = shard.New(ix.measure, shards)
	perShard := make([][]multiset.Multiset, ix.inner.Shards())
	for id, set := range sets {
		si := shard.ShardOf(id, len(perShard))
		perShard[si] = append(perShard[si], set)
	}
	for si, shardSets := range perShard {
		slices.SortFunc(shardSets, func(a, b multiset.Multiset) int { return cmp.Compare(a.ID, b.ID) })
		if err := ix.inner.At(si).BulkLoad(shardSets); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(ix.byName))
	for name := range ix.byName {
		names = append(names, name)
	}
	ix.order.load(names)
	return nil
}

// internElements interns WAL element names into index entries, dropping
// zero counts (multiset.New merges duplicates and sorts).
func (ix *Index) internElements(elems []wal.Element) []multiset.Entry {
	entries := make([]multiset.Entry, 0, len(elems))
	for _, el := range elems {
		if el.Count == 0 {
			continue
		}
		entries = append(entries, multiset.Entry{Elem: ix.dict.Intern(el.Name), Count: el.Count})
	}
	return entries
}

// noteLoggedLocked counts n logged mutations and cuts a snapshot once
// the cadence is reached. A snapshot failure is NOT the mutations'
// failure — the records are already durably logged and applied — so
// the counter is simply left unreset: the next mutation retries, and
// Close retries too, surfacing a persistent failure there. Caller holds
// ix.mu.
func (ix *Index) noteLoggedLocked(n int) {
	ix.logged += n
	if ix.snapshotEvery >= 0 && ix.logged >= ix.snapshotEvery {
		_ = ix.snapshotLocked()
	}
}

// snapshotLocked writes the index's snapshot, every entity in ID order
// (shard.Set.Range), truncates the log and resets the cadence counter.
// Each entity's elements are emitted in ascending name order, as
// walAddRecord logs them — element IDs follow the order a run happened
// to intern the names in, and the bytes must depend on the logical state
// alone. Caller holds ix.mu, which quiesces all mutations (they all take
// ix.mu), so the iteration is an atomic view.
func (ix *Index) snapshotLocked() error {
	err := ix.log.Snapshot(ix.inner.Shards(), func(emit func(wal.Record) error) error {
		var emitErr error
		ix.inner.Range(func(m multiset.Multiset) bool {
			elems := make([]wal.Element, len(m.Entries))
			for i, e := range m.Entries {
				elems[i] = wal.Element{Name: ix.dict.Name(e.Elem), Count: e.Count}
			}
			slices.SortFunc(elems, func(a, b wal.Element) int { return strings.Compare(a.Name, b.Name) })
			emitErr = emit(wal.Record{Op: wal.OpAdd, ID: uint64(m.ID), Entity: ix.names[m.ID], Elements: elems})
			return emitErr == nil
		})
		return emitErr
	})
	if err != nil {
		return fmt.Errorf("vsmartjoin: snapshot: %w", err)
	}
	ix.logged = 0
	return nil
}

// Snapshot forces a snapshot and log truncation of a durable index,
// regardless of the SnapshotEvery cadence. It returns ErrNotDurable on a
// volatile index and ErrIndexClosed after Close; any other error is a
// real persistence failure (a failed automatic snapshot is retried
// here, on the next mutation, and at Close until one succeeds).
func (ix *Index) Snapshot() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.log == nil {
		return ErrNotDurable
	}
	if ix.closed {
		return ErrIndexClosed
	}
	return ix.snapshotLocked()
}

// Close writes a final snapshot of a durable index with mutations logged
// since its last one and closes the write-ahead log. Further mutations
// and snapshots fail with ErrIndexClosed; queries keep working against
// the in-memory state. Closing a volatile or already-closed index is a
// no-op: a volatile index keeps accepting mutations.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.log == nil || ix.closed {
		return nil
	}
	ix.closed = true
	var err error
	if ix.logged > 0 {
		err = ix.snapshotLocked()
	}
	if cerr := ix.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Len reports the number of indexed entities.
func (ix *Index) Len() int { return ix.inner.Len() }

// Generation reports the write-ahead log's generation, or 0 for a
// volatile index. A bulk-built or freshly created directory opens at
// generation 1; every snapshot advances it.
func (ix *Index) Generation() uint64 {
	if ix.log == nil {
		return 0
	}
	return ix.log.Gen()
}

// Elements returns a copy of an indexed entity's current element
// multiplicities, or ok == false if the entity is not indexed. The
// cluster router uses it (via the daemon's GET /entity endpoint) to
// turn an entity-relative query into an element query it can scatter
// to the other partitions.
func (ix *Index) Elements(entity string) (counts map[string]uint32, ok bool) {
	ix.mu.RLock()
	id, ok := ix.byName[entity]
	ix.mu.RUnlock()
	if !ok {
		return nil, false
	}
	m := ix.inner.Snapshot(id)
	if len(m.Entries) == 0 {
		// Either the entity was legitimately indexed empty, or it was
		// removed between the name lookup and the snapshot — re-check so
		// a vanished entity reads as not-found, not as empty.
		ix.mu.RLock()
		_, ok = ix.byName[entity]
		ix.mu.RUnlock()
		if !ok {
			return nil, false
		}
	}
	counts = make(map[string]uint32, len(m.Entries))
	ix.mu.RLock()
	for _, e := range m.Entries {
		counts[ix.dict.Name(e.Elem)] += e.Count
	}
	ix.mu.RUnlock()
	return counts, true
}

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() IndexStats {
	s := ix.inner.Stats()
	m := ix.Metrics()
	var cacheHits, cacheMisses int64
	var cacheEntries int
	if ix.cache != nil {
		cacheHits = ix.cache.hits.Load()
		cacheMisses = ix.cache.misses.Load()
		cacheEntries = ix.cache.len()
	}
	return IndexStats{
		Measure:            ix.measure.Name(),
		Shards:             ix.inner.Shards(),
		Generation:         ix.Generation(),
		Entities:           s.Entities,
		Elements:           s.Elements,
		Postings:           s.Postings,
		Adds:               s.Adds,
		Removes:            s.Removes,
		Compactions:        s.Compactions,
		Queries:            s.Queries,
		Probes:             s.Probes,
		Candidates:         s.Candidates,
		LengthPruned:       s.LengthPruned,
		Verified:           s.Verified,
		Results:            s.Results,
		CacheHits:          cacheHits,
		CacheMisses:        cacheMisses,
		CacheEntries:       cacheEntries,
		QueryLatency:       summarize(m.Query),
		WALAppend:          summarize(m.WALAppend),
		WALFsync:           summarize(m.WALFsync),
		WALCommitWait:      summarize(m.WALCommitWait),
		WALBatchSize:       summarizeSize(m.WALBatch),
		WALGroupCommitSize: summarizeSize(m.WALGroupCommit),
		WALRecords:         m.WALRecords,
		WALFsyncs:          m.WALFsyncs,
	}
}
