package vsmartjoin

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
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
// mutations logged to one shard after which that shard cuts a snapshot
// and truncates its write-ahead log.
const defaultSnapshotEvery = 4096

// maxShards bounds IndexOptions.Shards: every query visits every shard,
// and past this that walk dwarfs any lock-contention win.
const maxShards = 1024

// defaultGroupCommitWindow is how long the group committer waits after
// the first pending record for neighbors to pile onto the same fsync
// (DurabilitySync only). Small enough to stay invisible next to the
// fsync itself, large enough to absorb a burst of concurrent writers.
const defaultGroupCommitWindow = 200 * time.Microsecond

// applyChunk caps how many mutations AddDataset, walking a corpus,
// passes to one Apply call: the batch each shard applies under one lock
// acquisition and one WAL append covers.
const applyChunk = 256

// Durability selects how a durable index acknowledges mutations.
type Durability int

const (
	// DurabilityOS (the default) pushes every WAL record to the
	// operating system before the mutation is acknowledged but fsyncs
	// only at snapshots and Close: a process crash loses nothing, a
	// machine crash can lose the un-fsynced tail of each shard's log.
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
	// [0, 1024], 0 = default (1, or the count of an existing data dir).
	// Entities are routed to shards by their ID, a query visits the
	// shards one after another on its caller's goroutine, and mutations
	// lock only the owning shard — identical results to one shard, but
	// writers stop serializing against the whole dataset. Shard counts
	// around GOMAXPROCS are a good default for write-heavy loads; a
	// read-only index gains nothing from sharding.
	//
	// For a durable index the shard count is part of the on-disk layout
	// (one log directory per shard). Opening an existing data dir with
	// Shards == 0 adopts the count found on disk; a nonzero count that
	// disagrees with the disk is refused, since the routing hash would
	// scatter entities away from the files that hold them.
	Shards int

	// Dir, when non-empty, makes the index durable: every Add/Remove is
	// appended to the owning shard's write-ahead log under Dir before it
	// is applied, and periodic snapshots truncate the logs. NewIndex
	// recovers the prior state (snapshot load + log replay, tolerating a
	// torn final frame) from a Dir that already holds one; OpenIndex
	// does the same but refuses to start fresh. Empty means fully
	// in-memory. The layout under Dir is one subdirectory per shard
	// ("shard-000", ...), each holding one snap-<gen>/wal-<gen>
	// generation — the same files the bulk builder (BuildIndexFiles)
	// writes, so a batch-built dir and a serving-written dir are
	// interchangeable.
	Dir string

	// SnapshotEvery is the number of mutations logged to one shard
	// between automatic snapshots of that shard (default 4096). Negative
	// disables automatic snapshots — the logs then grow until Snapshot
	// or Close. Ignored without Dir.
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
// shards counts once per shard). Generation is the highest write-ahead
// log generation across shards (0 for a volatile index); bulk-built
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
	// merged across the per-shard logs (empty for a volatile index);
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

	// mu guards the name tables and serializes logged mutations against
	// snapshots; the shards have their own locks, always nested inside
	// mu, so the nesting cannot deadlock.
	mu     sync.RWMutex
	dict   *multiset.Dict
	byName map[string]multiset.ID
	names  map[multiset.ID]string
	order  nameTable // the keys of byName, ascending: the kNN pad's read order
	nextID multiset.ID

	logs          []*wal.Log // nil for a volatile index; one per shard otherwise
	snapshotEvery int
	logged        []int // per-shard mutations since that shard's snapshot; guarded by mu
	closed        bool

	durability Durability
	gcWindow   time.Duration

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
	shards := opts.Shards
	if opts.Dir != "" {
		diskShards, err := wal.CountShardDirs(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
		}
		if diskShards == 0 && !create {
			return nil, fmt.Errorf("%w: %s", ErrNoIndex, opts.Dir)
		}
		if diskShards > 0 {
			if shards == 0 {
				shards = diskShards
			} else if shards != diskShards {
				return nil, fmt.Errorf("vsmartjoin: %s holds %d shards, options ask for %d",
					opts.Dir, diskShards, shards)
			}
		}
	}
	if shards == 0 {
		shards = 1
	}
	snapshotEvery := opts.SnapshotEvery
	if snapshotEvery == 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	switch opts.Durability {
	case DurabilityOS, DurabilitySync:
	default:
		return nil, fmt.Errorf("vsmartjoin: unknown durability %d", opts.Durability)
	}
	if opts.Durability == DurabilitySync && opts.Dir == "" {
		return nil, errors.New("vsmartjoin: DurabilitySync requires Dir")
	}
	gcWindow := opts.GroupCommitWindow
	if gcWindow == 0 {
		gcWindow = defaultGroupCommitWindow
	}
	ix := &Index{
		measure:       m,
		inner:         shard.New(m, shards),
		dict:          multiset.NewDict(),
		byName:        make(map[string]multiset.ID),
		names:         make(map[multiset.ID]string),
		nextID:        1,
		snapshotEvery: snapshotEvery,
		durability:    opts.Durability,
		gcWindow:      gcWindow,
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	if cacheSize > 0 {
		ix.cache = newQueryCache(cacheSize)
	}
	if opts.Dir != "" {
		if err := ix.openLogs(opts.Dir); err != nil {
			for _, l := range ix.logs {
				if l != nil {
					//lint:vsmart-allow walerr best-effort cleanup on the constructor's error path; the openLogs error is what the caller gets
					l.Close()
				}
			}
			return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
		}
	}
	return ix, nil
}

// recovered is one live entity reconstructed from a shard's files.
type recovered struct {
	id   multiset.ID
	name string
	set  multiset.Multiset
}

// openLogs recovers every shard's log directory under dir and
// bulk-loads the result. Each shard's snapshot + WAL replays into
// shard-local tables first (cheap maps, no index structures), because
// only within one shard are events totally ordered; the shard-local
// live sets are then merged into the global name tables and fed through
// the sealed internal/index bulk path in one pass per shard. A name
// claimed by two shards — possible only when a machine crash loses one
// shard's un-fsynced WAL tail while a later record in another shard
// survived — resolves to the higher entity ID: IDs are assigned
// monotonically, so the higher one is always the more recent add.
// The index is not yet shared, so no locking is needed here.
func (ix *Index) openLogs(dir string) error {
	n := ix.inner.Shards()
	ix.logs = make([]*wal.Log, n)
	ix.logged = make([]int, n)
	perShard := make([][]recovered, n)
	for i := 0; i < n; i++ {
		local := make(map[multiset.ID]recovered)
		localByName := make(map[string]multiset.ID)
		apply := func(rec wal.Record, inSnapshot bool) error {
			switch rec.Op {
			case wal.OpAdd:
				id := multiset.ID(rec.ID)
				if id == 0 {
					return fmt.Errorf("recover: entity %q has no ID", rec.Entity)
				}
				if shard.ShardOf(id, n) != i {
					return fmt.Errorf("recover: entity %d routes to shard %d but its record is in %s (was the index built with a different shard count?)",
						id, shard.ShardOf(id, n), wal.ShardDirName(i))
				}
				if old, ok := localByName[rec.Entity]; ok && old != id {
					if inSnapshot {
						return fmt.Errorf("recover: %s: snapshot holds entity %q twice (IDs %d and %d)",
							wal.ShardDirName(i), rec.Entity, old, id)
					}
					// Within one ordered log this means the remove that
					// freed the name was lost; the newer add supersedes it.
					delete(local, old)
				}
				local[id] = recovered{id: id, name: rec.Entity, set: multiset.New(id, ix.internElements(rec.Elements))}
				localByName[rec.Entity] = id
			case wal.OpRemove:
				if id, ok := localByName[rec.Entity]; ok {
					delete(local, id)
					delete(localByName, rec.Entity)
				}
			default:
				return fmt.Errorf("recover: unknown wal op %d", rec.Op)
			}
			return nil
		}
		var walOpts []wal.Option
		if ix.durability == DurabilitySync {
			walOpts = append(walOpts, wal.WithGroupCommit(ix.gcWindow))
		}
		l, err := wal.Open(filepath.Join(dir, wal.ShardDirName(i)), ix.measure.Name(),
			func(rec wal.Record) error { return apply(rec, true) },
			func(rec wal.Record) error { return apply(rec, false) },
			walOpts...)
		if err != nil {
			return err
		}
		ix.logs[i] = l
		perShard[i] = make([]recovered, 0, len(local))
		for _, r := range local {
			perShard[i] = append(perShard[i], r)
		}
		sort.Slice(perShard[i], func(a, b int) bool { return perShard[i][a].id < perShard[i][b].id })
	}

	// Cross-shard merge: resolve duplicate names (higher ID wins), then
	// bulk-load each shard's survivors and build the global name tables.
	owner := make(map[string]multiset.ID)
	for _, shardEnts := range perShard {
		for _, r := range shardEnts {
			if old, ok := owner[r.name]; !ok || r.id > old {
				owner[r.name] = r.id
			}
		}
	}
	var conflicted []int
	sorted := make([]string, 0, len(owner))
	for i, shardEnts := range perShard {
		sets := make([]multiset.Multiset, 0, len(shardEnts))
		stale := false
		for _, r := range shardEnts {
			if owner[r.name] != r.id {
				stale = true
				continue // superseded by a newer add in another shard
			}
			sets = append(sets, r.set)
			ix.byName[r.name] = r.id
			ix.names[r.id] = r.name
			sorted = append(sorted, r.name)
			if r.id >= ix.nextID {
				ix.nextID = r.id + 1
			}
		}
		if err := ix.inner.At(i).BulkLoad(sets); err != nil {
			return err
		}
		if stale {
			conflicted = append(conflicted, i)
		}
	}
	ix.order.load(sorted)
	// A shard that held a superseded entry resolved it in memory only;
	// its files still contain the stale add, which would resurrect if
	// the winning entity were later removed and this shard never
	// snapshotted again. Rewrite such shards now, while the resolution
	// is known. (The index is not yet shared, so the no-lock call to
	// the *Locked helper is safe.)
	for _, si := range conflicted {
		if err := ix.snapshotShardLocked(si); err != nil {
			return err
		}
	}
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

// noteLoggedLocked counts n mutations logged to shard si and cuts that
// shard's snapshot once the cadence is reached. A snapshot failure is
// NOT the mutations' failure — the records are already durably logged
// and applied — so the cadence counter is simply left unreset: the
// shard retries on its next mutation, and Close retries every shard
// whose counter is still positive, surfacing a persistent failure
// there. Caller holds ix.mu.
func (ix *Index) noteLoggedLocked(si, n int) {
	ix.logged[si] += n
	if ix.snapshotEvery < 0 || ix.logged[si] < ix.snapshotEvery {
		return
	}
	if err := ix.snapshotShardLocked(si); err != nil {
		return
	}
	ix.logged[si] = 0
}

// snapshotShardLocked writes shard si's snapshot and truncates its log.
// Each entity's elements are emitted in ascending name order, as
// walAddRecord logs them — element IDs follow the order a run happened
// to intern the names in, and the bytes must depend on the logical state
// alone. Caller holds ix.mu, which quiesces all mutations (they all take
// ix.mu), so the shard iteration is an atomic view.
func (ix *Index) snapshotShardLocked(si int) error {
	err := ix.logs[si].Snapshot(func(emit func(wal.Record) error) error {
		var emitErr error
		ix.inner.At(si).Range(func(m multiset.Multiset) bool {
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
		return fmt.Errorf("vsmartjoin: snapshot %s: %w", wal.ShardDirName(si), err)
	}
	return nil
}

// snapshotLocked cuts every shard's snapshot. Caller holds ix.mu.
func (ix *Index) snapshotLocked() error {
	for si := range ix.logs {
		if err := ix.snapshotShardLocked(si); err != nil {
			return err
		}
		ix.logged[si] = 0
	}
	return nil
}

// Snapshot forces a full snapshot and log truncation of every shard on
// a durable index, regardless of the SnapshotEvery cadence. It returns
// ErrNotDurable on a volatile index and ErrIndexClosed after Close;
// any other error is a real persistence failure (a shard whose
// automatic snapshot failed keeps its cadence counter, so it is retried
// here, on its next mutation, and at Close until one succeeds).
func (ix *Index) Snapshot() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.logs == nil {
		return ErrNotDurable
	}
	if ix.closed {
		return ErrIndexClosed
	}
	return ix.snapshotLocked()
}

// Close writes a final snapshot of every shard of a durable index with
// mutations logged since its last one and closes the write-ahead logs.
// Further mutations and snapshots fail with ErrIndexClosed; queries keep
// working against the in-memory state. Closing a volatile or
// already-closed index is a no-op: a volatile index keeps accepting
// mutations.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.logs == nil || ix.closed {
		return nil
	}
	ix.closed = true
	// A shard whose automatic snapshot failed kept its logged count > 0,
	// so the retry below either persists it (the old failure is moot) or
	// fails afresh and is reported here.
	var first error
	for si, l := range ix.logs {
		if ix.logged[si] > 0 {
			if err := ix.snapshotShardLocked(si); err != nil && first == nil {
				first = err
			}
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len reports the number of indexed entities.
func (ix *Index) Len() int { return ix.inner.Len() }

// Generation reports the highest write-ahead log generation across
// shards, or 0 for a volatile index. A bulk-built directory opens at
// generation 1; every snapshot rotation advances the cut shard.
func (ix *Index) Generation() uint64 {
	ix.mu.RLock()
	logs := ix.logs
	ix.mu.RUnlock()
	var gen uint64
	for _, l := range logs {
		if g := l.Gen(); g > gen {
			gen = g
		}
	}
	return gen
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
