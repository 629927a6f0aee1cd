package vsmartjoin

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/metrics"
	"vsmartjoin/internal/multiset"
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

// snapshotFloor is the least WAL size, in bytes, that cuts an automatic
// snapshot: the log rotates at max(its snapshot's size, snapshotFloor),
// so snapshots cost at most the bytes logged, recovery replays at most
// about one snapshot's worth, and a small index does not rotate often.
const snapshotFloor = 1 << 20

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
	// its WAL record. Fsyncs are group-committed: the first mutation to
	// wait fsyncs at once for every mutation logged by then, and the
	// mutations logged during that fsync share the next one, so under
	// concurrent load the per-mutation cost is an fsync amortized over
	// every write in the same commit, not an fsync each. Requires Dir.
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

	// Deprecated: ignored — an Index is one partition; kept only because
	// benchmark/ sets it.
	Shards int

	// Dir, when non-empty, makes the index durable: every Add/Remove is
	// appended to the index's write-ahead log under Dir before it is
	// applied, and a snapshot truncates the log once the log reaches
	// the size of the snapshot before it (at least 1 MiB). NewIndex
	// recovers the prior state (snapshot load + log replay, tolerating a
	// torn final frame) from a Dir that already holds one, and otherwise
	// creates it with an empty snapshot recording Measure; OpenIndex
	// does the same but refuses to start fresh. Empty means fully
	// in-memory. Dir holds one generation, snap-<gen> plus wal-<gen> —
	// the same files the bulk builder (BuildIndexFiles) writes, so a
	// batch-built dir and a serving-written dir are interchangeable.
	// Dirs written when an index could be sharded open unchanged.
	Dir string

	// Durability selects the acknowledgement contract of a durable
	// index (requires Dir): DurabilityOS (default) never fsyncs until a
	// snapshot, DurabilitySync group-commits an fsync before every
	// acknowledgement: the first waiting mutation fsyncs at once, and
	// mutations logged during that fsync share the next one. Ignored
	// without Dir.
	Durability Durability

	// CacheSize bounds the query result cache: a per-index LRU over
	// interned queries ((measure, element IDs and counts, t or k) keys)
	// that short-circuits repeated queries — the head of a zipf-skewed
	// query population — without ever serving a stale answer: every
	// Add/Remove bumps the index generation and a cached entry only hits
	// while its stamped generation is current. An answer is stored on
	// its key's second miss, so one-off queries never displace the head;
	// the table of recent misses that decides it has the power of two
	// at or above 2×CacheSize slots. 0 means the default (1024
	// entries); negative disables caching entirely. Hit/miss traffic is
	// reported by IndexStats.CacheHits/CacheMisses.
	CacheSize int
}

// IndexStats snapshots the size and traffic counters of an Index; see
// the field docs on internal/index.Stats for the pruning pipeline the
// Probes → Candidates → Verified → Results funnel describes (Probes
// includes the postings walked only to finish admitted candidates'
// partial sums; Verified counts similarities computed). Generation is
// the write-ahead log's generation (0 for a volatile index); bulk-built
// and freshly created directories open at generation 1.
type IndexStats struct {
	Measure    string `json:"measure"`
	Generation uint64 `json:"generation"`
	Entities   int    `json:"entities"`
	Elements   int    `json:"elements"`
	Postings   int    `json:"postings"`

	Adds        int64 `json:"adds"`
	Removes     int64 `json:"removes"`
	Compactions int64 `json:"compactions"`

	// Queries counts uncached queries that reached the inner index, one
	// per query of any kind: a top-k or kNN query's boundary ties come
	// back from its one pass, so Results counts them too.
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
	// CacheHits + CacheMisses (a query naming an entity that is not
	// indexed fails and counts as neither) and the
	// funnel keeps describing real pruning work.
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
// data structure and locking design and internal/wal for the durability
// layer. Use AllPairs for periodic full joins and an Index for interactive
// lookups against the same entities.
type Index struct {
	measure similarity.Measure
	inner   *index.Index

	// mu guards the name tables and the inner index, which has no lock
	// of its own: every mutation, logged or not, and every snapshot hold
	// it for writing, and every uncached query holds it for reading from
	// its subject to its resolved answer. Entity names live beside their
	// slots in the inner index (index.BatchOp.Name). The dictionary has a
	// lock of its own, taken inside mu when both are held.
	mu     sync.RWMutex
	dict   *multiset.Dict
	byName map[string]multiset.ID
	order  nameTable // the keys of byName, ascending: the kNN pad's read order
	nextID multiset.ID

	log    *wal.Log // nil for a volatile index; set at construction, never replaced
	closed bool

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
	m, err := measureByName(opts.Measure)
	if err != nil {
		return nil, err
	}
	var walOpts []wal.Option
	switch opts.Durability {
	case DurabilityOS:
	case DurabilitySync:
		if opts.Dir == "" {
			return nil, errors.New("vsmartjoin: DurabilitySync requires Dir")
		}
		walOpts = append(walOpts, wal.WithGroupCommit())
	default:
		return nil, fmt.Errorf("vsmartjoin: unknown durability %d", opts.Durability)
	}
	ix := &Index{
		measure: m,
		inner:   index.New(m),
		dict:    multiset.NewDict(),
		byName:  make(map[string]multiset.ID),
		nextID:  1,
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	if cacheSize > 0 {
		ix.cache = newQueryCache(cacheSize)
	}
	if opts.Dir == "" {
		return ix, nil
	}
	exists, err := wal.Exists(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("vsmartjoin: open index dir: %w", err)
	}
	if !exists && !create {
		return nil, fmt.Errorf("%w: %s", ErrNoIndex, opts.Dir)
	}
	if err := ix.openLog(opts.Dir, !exists, walOpts); err != nil {
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
// measure, so every data dir is one snapshot plus one WAL from the start
// and is never reopened under another measure. Recovery replays the
// snapshot and then the WAL, in the one order they were logged, into the
// name tables and one entity table, which is then bulk-loaded in ID
// order through the sealed internal/index path. The index is not yet
// shared, so no locking is needed here.
func (ix *Index) openLog(dir string, fresh bool, opts []wal.Option) error {
	if fresh {
		err := wal.WriteSnapshot(dir, 1, ix.measure.Name(), func(func(wal.Record) error) error { return nil })
		if err != nil {
			return err
		}
	}
	type entity struct {
		name string
		set  multiset.Multiset
	}
	sets := make(map[multiset.ID]entity)
	apply := func(rec wal.Record) error {
		// Every record retires the entity that holds the name, if any;
		// an OpAdd then installs its own (a replayed upsert keeps its ID).
		if id, ok := ix.byName[rec.Entity]; ok {
			delete(sets, id)
			delete(ix.byName, rec.Entity)
		}
		if rec.Op != wal.OpAdd {
			return nil
		}
		id := multiset.ID(rec.ID)
		if id == 0 {
			return fmt.Errorf("recover: entity %q has no ID", rec.Entity)
		}
		sets[id] = entity{rec.Entity, multiset.New(id, ix.internElements(rec.Elements))}
		ix.byName[rec.Entity] = id
		ix.nextID = max(ix.nextID, id+1)
		return nil
	}
	l, err := wal.Open(dir, ix.measure.Name(), apply, apply, opts...)
	if err != nil {
		return err
	}
	ix.log = l
	all := slices.SortedFunc(maps.Values(sets), func(a, b entity) int { return cmp.Compare(a.set.ID, b.set.ID) })
	byID, names := make([]multiset.Multiset, len(all)), make([]string, len(all))
	for i, e := range all {
		byID[i], names[i] = e.set, e.name
	}
	if err := ix.inner.BulkLoad(byID, names...); err != nil {
		return err
	}
	ix.order.load(names) // sorts names, which BulkLoad has copied
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

// snapshotIfOutgrownLocked cuts a snapshot once the log has reached
// max(its snapshot's size, snapshotFloor). A snapshot failure is NOT
// the mutations' failure — the records are already durably logged and
// applied — and the log keeps its size, so the next mutation retries,
// and Close retries too, surfacing a persistent failure there. Caller
// holds ix.mu.
func (ix *Index) snapshotIfOutgrownLocked() {
	if walBytes, snapBytes := ix.log.Sizes(); walBytes >= max(snapBytes, snapshotFloor) {
		_ = ix.snapshotLocked()
	}
}

// snapshotLocked writes the index's snapshot, every entity in ID order
// (index.Range), and truncates the log.
// Each entity's elements are emitted in ascending name order, as
// walAddRecord logs them — element IDs follow the order a run happened
// to intern the names in, and the bytes must depend on the logical state
// alone. Caller holds ix.mu, which quiesces all mutations (they all take
// ix.mu), so the iteration is an atomic view.
func (ix *Index) snapshotLocked() error {
	err := ix.log.Snapshot(func(emit func(wal.Record) error) error {
		var emitErr error
		ix.inner.Range(func(m multiset.Multiset) bool {
			elems := make([]wal.Element, len(m.Entries))
			for i, e := range m.Entries {
				elems[i] = wal.Element{Name: ix.dict.Name(e.Elem), Count: e.Count}
			}
			slices.SortFunc(elems, func(a, b wal.Element) int { return strings.Compare(a.Name, b.Name) })
			emitErr = emit(wal.Record{Op: wal.OpAdd, ID: uint64(m.ID), Entity: ix.inner.Name(m.ID), Elements: elems})
			return emitErr == nil
		})
		return emitErr
	})
	if err != nil {
		return fmt.Errorf("vsmartjoin: snapshot: %w", err)
	}
	return nil
}

// Snapshot forces a snapshot and log truncation of a durable index,
// however small its log. It returns ErrNotDurable on a
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

// Close writes a final snapshot of a durable index whose log holds any
// record and closes the write-ahead log. Further mutations
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
	if walBytes, _ := ix.log.Sizes(); walBytes > 0 {
		err = ix.snapshotLocked()
	}
	if cerr := ix.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Len reports the number of indexed entities.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.inner.Len()
}

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
// cluster router uses it (via the peer hop's entity call) to turn an
// entity-relative query into an element query it can scatter to the
// other partitions. The name, the multiset and the element names
// are read in one ix.mu read hold, so a concurrent remove and re-add
// cannot pair the name with a dead ID.
func (ix *Index) Elements(entity string) (counts map[string]uint32, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.byName[entity]
	if !ok {
		return nil, false
	}
	m := ix.inner.View(id)
	counts = make(map[string]uint32, len(m.Entries))
	for _, e := range m.Entries {
		counts[ix.dict.Name(e.Elem)] += e.Count
	}
	return counts, true
}

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() IndexStats {
	ix.mu.RLock()
	s := ix.inner.Stats()
	ix.mu.RUnlock()
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
		QueryLatency:       m.Query.Summary(),
		WALAppend:          m.WALAppend.Summary(),
		WALFsync:           m.WALFsync.Summary(),
		WALCommitWait:      m.WALCommitWait.Summary(),
		WALBatchSize:       m.WALBatch.Summary(),
		WALGroupCommitSize: m.WALGroupCommit.Summary(),
		WALRecords:         m.WALRecords,
		WALFsyncs:          m.WALFsyncs,
	}
}
