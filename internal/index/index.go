// Package index implements the online half of the system: an incremental
// inverted index over multisets that answers threshold and top-k
// similarity queries against a live, mutable dataset.
//
// Where the batch join (internal/core) recomputes every pair from scratch
// on a simulated cluster, the index serves point lookups: per-element
// posting lists map alphabet elements to the entities containing them, a
// query probes the lists of its own elements to gather candidates, and the
// measure-derived bounds of internal/similarity prune the probe in two
// ways before exact verification:
//
//   - prefix filter: posting lists are probed in decreasing-multiplicity
//     order, and probing stops once ResidualUpperBound shows the unprobed
//     tail of the query cannot reach the threshold — entities overlapping
//     the query only in that tail are provably below it;
//   - length filter: each candidate's UniStats are checked with
//     SimUpperBound before the candidate is verified.
//
// Verification sums g(f_q,k, f_e,k) over the shared elements only, as the
// paper's Similarity phase does: the query's elements are loaded once
// into a bitmap over element IDs and each candidate's entries are walked
// against it (pass.conj). That is the package's one contract on element
// IDs: they are dense — callers intern their alphabet into small
// consecutive integers (multiset.Dict), so a bitmap as long as the
// largest ID an index has posted is alphabet/8 bytes, not 2^64 bits.
//
// One query is one pass (QueryAcross) over one Index or over several
// holding disjoint partitions of the entities (internal/shard), on the
// caller's goroutine.
//
// Concurrency: a single RWMutex guards the tables. Mutations (Add, Remove,
// compaction) take the write lock; queries share the read lock, so the hot
// path never serializes reads against each other. Entities are immutable
// once inserted (Add replaces the stored record wholesale), which lets a
// threshold query release the lock before the exact-verification loop — the
// most expensive part of a query runs with no lock held at all. Stale
// posting entries left behind by Remove or replacement are skipped by
// pointer identity and reclaimed by an amortized compaction pass.
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/planner"
	"vsmartjoin/internal/similarity"
)

// boundEps is the slack applied when comparing pruning bounds against the
// threshold; it is looser than verifyEps so filters never drop a pair that
// verification would keep.
const boundEps = 1e-9

// verifyEps matches the ppjoin.Naive oracle's inclusion tolerance.
const verifyEps = 1e-12

// entry is one indexed entity. Entries are immutable after insertion:
// Add of an existing ID swaps in a fresh entry, so a query that captured
// the old pointer can keep verifying against a consistent snapshot.
//
// slot is the entry's index into the per-query candidate mark table: a
// small dense integer assigned under the write lock when the entry is
// created and recycled when it dies (replacement or Remove). Live
// entries always hold distinct slots, and a query deduplicates
// candidates by stamping slots with its epoch instead of inserting
// pointers into a freshly allocated map. Slot recycling cannot alias
// within one query: slots only move between entries under the write
// lock, the probe loop runs entirely inside one read-lock hold, and
// dead entries (which may share a recycled slot with a live one) are
// dropped by the identity check before any stamping happens.
type entry struct {
	set  multiset.Multiset
	uni  similarity.UniStats
	slot int32
}

// Match is one query result.
type Match struct {
	ID  multiset.ID
	Sim float64
}

// Query is a query multiset. Set holds the elements drawn from the index
// alphabet; Extra accounts elements outside it, which can match no posting
// list but still weigh into the query's cardinalities (and therefore into
// every similarity denominator).
type Query struct {
	Set   multiset.Multiset
	Extra similarity.UniStats
}

// QueryOf wraps a multiset whose elements all come from the index alphabet.
func QueryOf(m multiset.Multiset) Query { return Query{Set: m} }

// Stats is a point-in-time snapshot of index size and traffic counters.
type Stats struct {
	// Entities is the number of live entities; Elements the number of
	// distinct alphabet elements with a posting list; Postings the total
	// posting entries including tombstoned ones awaiting compaction.
	Entities int
	Elements int
	Postings int

	// Adds, Removes, Compactions count mutations since creation.
	Adds        int64
	Removes     int64
	Compactions int64

	// Queries counts lookups; the remaining counters expose how far each
	// pruning stage narrowed them: Probes is posting entries scanned,
	// Candidates is distinct live candidates gathered, LengthPruned is
	// candidates dropped by SimUpperBound, Verified is exact similarity
	// computations, Results is matches returned.
	Queries      int64
	Probes       int64
	Candidates   int64
	LengthPruned int64
	Verified     int64
	Results      int64
}

// Index is an incremental inverted similarity index. The zero value is not
// usable; construct with New.
type Index struct {
	measure similarity.Measure

	mu       sync.RWMutex
	entities map[multiset.ID]*entry
	postings map[multiset.Elem][]*entry
	// postingCount tracks total posting entries; deadPostings those whose
	// entry is no longer current. Compaction triggers when dead entries
	// outnumber live ones, keeping probe work amortized-linear.
	postingCount int
	deadPostings int
	// nextSlot is the high-water mark of the dense entry-slot space (all
	// live slots are < nextSlot); freeSlots recycles the slots of dead
	// entries so the space stays as dense as the live entity count.
	nextSlot  int32
	freeSlots []int32
	// maxElem is the largest element ID ever posted: the bound on the
	// membership bitmap a query loads (pass.cover).
	maxElem multiset.Elem

	adds        atomic.Int64
	removes     atomic.Int64
	compactions atomic.Int64
	queries     atomic.Int64
	probes      atomic.Int64
	candidates  atomic.Int64
	lenPruned   atomic.Int64
	verified    atomic.Int64
	results     atomic.Int64
}

// New returns an empty index verifying with the given measure.
func New(m similarity.Measure) *Index {
	return &Index{
		measure:  m,
		entities: make(map[multiset.ID]*entry),
		postings: make(map[multiset.Elem][]*entry),
	}
}

// SetPlanner does nothing; it remains only because benchmark/ladder.go
// calls it.
func (ix *Index) SetPlanner(planner.Heuristic) {}

// Measure reports the measure the index verifies with.
func (ix *Index) Measure() similarity.Measure { return ix.measure }

// Len reports the number of live entities.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entities)
}

// allocSlotLocked hands out a dense mark-table slot for a new live
// entry, recycling dead entries' slots first. Caller holds the write
// lock.
func (ix *Index) allocSlotLocked() int32 {
	if n := len(ix.freeSlots); n > 0 {
		s := ix.freeSlots[n-1]
		ix.freeSlots = ix.freeSlots[:n-1]
		return s
	}
	s := ix.nextSlot
	ix.nextSlot++
	return s
}

// freeSlotLocked returns a dead entry's slot to the free list. Caller
// holds the write lock.
func (ix *Index) freeSlotLocked(e *entry) {
	ix.freeSlots = append(ix.freeSlots, e.slot)
}

// Add inserts an entity, replacing any previous entity with the same ID:
// a one-op ApplyBatch. The index takes ownership of m: callers must not
// mutate its entries afterwards (the hot insert path avoids a defensive
// copy; Snapshot clones on the way out instead).
func (ix *Index) Add(m multiset.Multiset) { ix.ApplyBatch([]BatchOp{{Set: m}}) }

// Remove deletes the entity with the given ID, reporting whether it was
// present: a one-op ApplyBatch.
func (ix *Index) Remove(id multiset.ID) bool {
	return ix.ApplyBatch([]BatchOp{{Remove: true, ID: id}}) == 1
}

// addPostingsLocked appends a fresh entry to its element posting lists,
// maintaining the posting count. Caller holds the write lock.
func (ix *Index) addPostingsLocked(e *entry) {
	for _, ent := range e.set.Entries {
		ix.postings[ent.Elem] = append(ix.postings[ent.Elem], e)
	}
	if n := len(e.set.Entries); n > 0 { // entries ascend by element
		ix.maxElem = max(ix.maxElem, e.set.Entries[n-1].Elem)
	}
	ix.postingCount += len(e.set.Entries)
}

// BatchOp is one mutation of an ApplyBatch: an upsert of Set when
// Remove is false, a deletion of ID when it is true.
type BatchOp struct {
	Remove bool
	ID     multiset.ID       // deletion target (Remove only)
	Set    multiset.Multiset // upsert payload (Add only); the index takes ownership
}

// ApplyBatch applies ops in order under a single write-lock
// acquisition and reports how many removals found their entity — the
// one mutation path of a live index (BulkLoad is the sealed path for an
// empty one). A contended write storm pays the lock handoff and the
// compaction-trigger check once per batch instead of once per mutation,
// so readers see one short exclusion window instead of N.
func (ix *Index) ApplyBatch(ops []BatchOp) (removed int) {
	if len(ops) == 0 {
		return 0
	}
	adds := 0
	ix.mu.Lock()
	for _, op := range ops {
		if op.Remove {
			if e, ok := ix.entities[op.ID]; ok {
				delete(ix.entities, op.ID)
				ix.deadPostings += len(e.set.Entries)
				ix.freeSlotLocked(e)
				removed++
			}
			continue
		}
		m := op.Set
		e := &entry{set: m, uni: similarity.UniOf(m), slot: ix.allocSlotLocked()}
		if old, ok := ix.entities[m.ID]; ok {
			// The old entry's postings become stale the moment the map points
			// at the new one; count them for compaction.
			ix.deadPostings += len(old.set.Entries)
			ix.freeSlotLocked(old)
		}
		ix.entities[m.ID] = e
		ix.addPostingsLocked(e)
		adds++
	}
	ix.maybeCompactLocked()
	ix.mu.Unlock()
	ix.adds.Add(int64(adds))
	ix.removes.Add(int64(removed))
	return removed
}

// BulkLoad ingests entities in strictly ascending ID order into an
// empty index — the sealed fast path a bulk-built snapshot loads
// through. Unlike repeated Add it skips the whole upsert machinery:
// no per-entity existence check, no tombstone accounting, no
// compaction-trigger evaluation, and the entity table is sized once.
// The resulting structures are exactly what the same Adds would have
// built (posting lists append in ID order either way), so queries
// answer identically. The index takes ownership of the multisets.
// A non-empty index or an ID-order violation is an error and leaves
// the index unchanged.
func (ix *Index) BulkLoad(sets []multiset.Multiset) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.entities) != 0 || ix.postingCount != 0 {
		return fmt.Errorf("index: bulk load into a non-empty index (%d entities)", len(ix.entities))
	}
	for i := range sets {
		if sets[i].ID == 0 {
			return fmt.Errorf("index: bulk load: entity %d has ID 0 (reserved for ad-hoc queries)", i)
		}
		if i > 0 && sets[i].ID <= sets[i-1].ID {
			return fmt.Errorf("index: bulk load: IDs not strictly ascending at %d (%d after %d)",
				i, sets[i].ID, sets[i-1].ID)
		}
	}
	ix.entities = make(map[multiset.ID]*entry, len(sets))
	for _, m := range sets {
		e := &entry{set: m, uni: similarity.UniOf(m), slot: ix.allocSlotLocked()}
		ix.entities[m.ID] = e
		ix.addPostingsLocked(e)
	}
	// Bulk-loaded entities are mutations like any other: a daemon
	// bootstrapped from snapshot files must report the entities it
	// serves in Stats.Adds (and /readyz's mutation counter), not 0.
	ix.adds.Add(int64(len(sets)))
	return nil
}

// maybeCompactLocked rewrites every posting list without stale entries
// once they outnumber live ones. Caller holds the write lock.
func (ix *Index) maybeCompactLocked() {
	if ix.deadPostings <= ix.postingCount-ix.deadPostings {
		return
	}
	for elem, list := range ix.postings {
		w := 0
		for _, e := range list {
			if ix.entities[e.set.ID] == e {
				list[w] = e
				w++
			}
		}
		if w == 0 {
			delete(ix.postings, elem)
			continue
		}
		ix.postings[elem] = list[:w]
	}
	ix.postingCount -= ix.deadPostings
	ix.deadPostings = 0
	ix.compactions.Add(1)
}

// Range calls fn for every live entity in ascending ID order, stopping
// early if fn returns false. The multisets passed are the index's own
// immutable entries — callers must not mutate them. The iteration works
// over a point-in-time capture of the entity table: fn runs with no
// lock held, so it may query or mutate the index, at the price of not
// observing entities added after Range started.
func (ix *Index) Range(fn func(m multiset.Multiset) bool) {
	ix.mu.RLock()
	snap := make([]*entry, 0, len(ix.entities))
	for _, e := range ix.entities {
		snap = append(snap, e)
	}
	ix.mu.RUnlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].set.ID < snap[j].set.ID })
	for _, e := range snap {
		if !fn(e.set) {
			return
		}
	}
}

// View returns the entity's current multiset (keeping its ID, so
// querying with it skips the self-pair), or an empty multiset if the ID
// is not indexed. It is the index's own immutable entry, not a copy:
// callers must not mutate it, and one that hands the entries on to code
// it does not control wants Snapshot.
func (ix *Index) View(id multiset.ID) multiset.Multiset {
	ix.mu.RLock()
	e, ok := ix.entities[id]
	ix.mu.RUnlock()
	if !ok {
		return multiset.Multiset{ID: id}
	}
	return e.set
}

// Snapshot is View, copied.
func (ix *Index) Snapshot(id multiset.ID) multiset.Multiset { return ix.View(id).Clone() }

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	s := Stats{
		Entities: len(ix.entities),
		Elements: len(ix.postings),
		Postings: ix.postingCount,
	}
	ix.mu.RUnlock()
	s.Adds = ix.adds.Load()
	s.Removes = ix.removes.Load()
	s.Compactions = ix.compactions.Load()
	s.Queries = ix.queries.Load()
	s.Probes = ix.probes.Load()
	s.Candidates = ix.candidates.Load()
	s.LengthPruned = ix.lenPruned.Load()
	s.Verified = ix.verified.Load()
	s.Results = ix.results.Load()
	return s
}

// queryStats is the full unilateral view of a query: indexed elements plus
// out-of-alphabet extras.
func queryStats(q Query) similarity.UniStats {
	u := similarity.UniOf(q.Set)
	u.Add(q.Extra)
	return u
}

// pass is the reusable state of one query: the query with its
// unilateral stats and sorted probe order (computed once, whatever the
// partition count), the element-membership bitmap verification probes,
// the candidate buffer and epoch-stamped dedup mark table each
// partition's probe reuses, the bounded top-k heap and the output
// buffer. QueryAcross hands one pass from partition to partition, which
// is what lets a top-k query prune every partition against the floor
// the earlier ones already raised. A pass is owned by exactly one query
// between begin and reset; pooling them makes the steady-state query
// path allocation-free.
type pass struct {
	q     Query
	qUni  similarity.UniStats
	order []multiset.Entry
	// bits has bit e set iff the query holds element e, for the first
	// covered entries of q.Set.Entries (cover); every other bit of the
	// table is zero, and reset zeroes the words a query touched.
	bits    []uint64
	covered int
	cands   []*entry
	// marks[slot] == epoch iff the entry holding slot was already seen
	// by the current partition's probe; bumping epoch resets the whole
	// table in O(1).
	marks []uint32
	epoch uint32
	heap  topkHeap
	out   []Match
	// lists[i] is the posting list of order[i] in the partition being
	// probed (Index.openLocked).
	lists [][]*entry
}

var passPool = sync.Pool{New: func() any { return new(pass) }}

// begin readies a reset pass for q, appending to buf.
func (p *pass) begin(q Query, buf []Match) {
	p.q, p.qUni, p.out = q, queryStats(q), buf
	p.order = append(p.order[:0], q.Set.Entries...)
	sortProbeOrder(p.order)
	p.heap = p.heap[:0]
}

// reset makes the pass fit for the pool: its bitmap all zero again, the
// caller's slices dropped.
func (p *pass) reset() {
	for _, ent := range p.q.Set.Entries[:p.covered] {
		p.bits[ent.Elem>>6] = 0
	}
	p.covered = 0
	p.q, p.out = Query{}, nil
	clear(p.lists) // a pooled pass must not pin a compacted-away posting array
}

// cover extends the bitmap to the query's elements up to maxElem, the
// largest element ID the partition about to be probed has ever posted.
// The caller holds that partition's read lock, so every candidate the
// probe gathers has all its elements at or below maxElem: an element the
// bitmap does not reach is one the query does not hold or no candidate
// does. The bitmap is therefore never longer than the index's own
// alphabet, whatever IDs a query names.
func (p *pass) cover(maxElem multiset.Elem) {
	ents := p.q.Set.Entries
	n := p.covered
	for n < len(ents) && ents[n].Elem <= maxElem {
		n++
	}
	if n == p.covered {
		return
	}
	if words := int(ents[n-1].Elem>>6) + 1; words > len(p.bits) {
		p.bits = append(p.bits, make([]uint64, words-len(p.bits))...)
	}
	for _, ent := range ents[p.covered:n] {
		p.bits[ent.Elem>>6] |= 1 << (ent.Elem & 63)
	}
	p.covered = n
}

// conj is similarity.ConjOf(p.q.Set, e.set) with the two-list merge scan
// replaced by one walk of the candidate's entries: "not in the query" is
// a bit probe, and only a shared element looks up the query's count, by
// binary search above the previous hit. Shared elements reach
// AccumulateConj in the same ascending order, so the sums are the same
// integers.
func (p *pass) conj(e *entry) similarity.ConjStats {
	var c similarity.ConjStats
	qe := p.q.Set.Entries[:p.covered]
	lo := 0
	for _, ent := range e.set.Entries {
		w := ent.Elem >> 6
		if w >= multiset.Elem(len(p.bits)) {
			break // past every element the bitmap covers; entries ascend
		}
		if p.bits[w]&(1<<(ent.Elem&63)) == 0 {
			continue
		}
		hi := len(qe)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if qe[mid].Elem < ent.Elem {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c.AccumulateConj(qe[lo].Count, ent.Count)
		lo++
	}
	return c
}

// mark readies the dedup table for one probe over a partition whose
// slot high-water mark is limit. The caller must hold (at least) the
// read lock for the whole probe: slots only migrate between entries
// under the write lock, so within one probe live slots are stable.
func (p *pass) mark(limit int) {
	if cap(p.marks) < limit {
		// A fresh zeroed table is correct at any epoch > 0: no slot was
		// stamped with the current epoch yet.
		p.marks = make([]uint32, limit+limit/2+16)
	}
	p.marks = p.marks[:cap(p.marks)]
	p.epoch++
	if p.epoch == 0 { // wrapped: stale stamps could collide, wipe them
		clear(p.marks)
		p.epoch = 1
	}
}

// sortProbeOrder sorts query entries for probing: decreasing
// multiplicity first so the residual bound collapses as fast as
// possible, element ID second for determinism.
func sortProbeOrder(ord []multiset.Entry) {
	slices.SortFunc(ord, func(a, b multiset.Entry) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		if a.Elem != b.Elem {
			if a.Elem < b.Elem {
				return -1
			}
			return 1
		}
		return 0
	})
}

// QueryAcross answers q over parts, disjoint partitions of one entity
// set, in a single pass on the caller's goroutine, appending to buf
// (typically a reused buffer truncated to buf[:0], which keeps the
// steady-state path allocation-free): the threshold query at t when
// k < 0, the top-k query otherwise. Only the appended region is sorted
// (decreasing similarity, ID ascending on ties); buf's existing contents
// are preserved. Each partition is probed under its own read lock, in
// order, with the one pass state: a threshold query collects every
// partition's verified matches and sorts once; a top-k query carries one
// bounded heap through all of them, so each partition starts from the
// floor the previous ones raised and the heap after the last partition
// is the global top-k — an entity is pruned only when its bound is below
// k similarities already found, which keeps it out of any partitioning's
// answer. One partition is the single-index query.
func QueryAcross(parts []*Index, q Query, t float64, k int, buf []Match) []Match {
	if k == 0 || len(q.Set.Entries) == 0 {
		return buf
	}
	base := len(buf)
	p := passPool.Get().(*pass)
	p.begin(q, buf)
	for _, ix := range parts {
		if k < 0 {
			ix.thresholdStep(p, t)
		} else {
			ix.topkStep(p, k)
		}
	}
	buf = append(p.out, p.heap...)
	p.reset()
	passPool.Put(p)
	if k > 0 {
		// Which partition a survivor came from is not tracked; the sum
		// over partitions is what Stats consumers read.
		parts[len(parts)-1].results.Add(int64(len(buf) - base))
	}
	SortMatches(buf[base:])
	return buf
}

// QueryThresholdInto appends to buf every indexed entity whose
// similarity to q is at least t: QueryAcross over this one index. An
// entity whose ID equals the query's own ID is never a candidate
// (self-pairs are meaningless; use ID 0 for ad-hoc queries).
func (ix *Index) QueryThresholdInto(q Query, t float64, buf []Match) []Match {
	ix.queries.Add(1)
	return QueryAcross([]*Index{ix}, q, t, -1, buf)
}

// QueryTopKInto appends to buf the k most similar indexed entities:
// QueryAcross over this one index.
//
// The same pass serves k-nearest-neighbor queries: under the distance
// d = 1 − Sim, "distance ascending" and "similarity descending" are the
// same order and the rising k-th-distance floor is this floor, so the
// layers above ask for the top k and compute distances where they name
// the results (vsmartjoin.Index.Query).
func (ix *Index) QueryTopKInto(q Query, k int, buf []Match) []Match {
	ix.queries.Add(1)
	return QueryAcross([]*Index{ix}, q, 0, max(k, 0), buf)
}

// Neighbor and QueryKNNInto remain only because benchmark/ladder.go
// names them (its index.knn_ns rung): a neighbor is a Match and the kNN
// pass is the top-k pass.
type Neighbor = Match

// QueryKNNInto is QueryTopKInto; see Neighbor.
func (ix *Index) QueryKNNInto(q Query, k int, buf []Neighbor) []Neighbor {
	return ix.QueryTopKInto(q, k, buf)
}

// openLocked readies p for a probe of this index: the bitmap covers the
// index's alphabet, the dedup table its slots, and p.lists holds the
// posting list of every query element — looked up back to back, before
// any list is walked and including those a bound will cut off. The
// lookups are independent, so their cache misses overlap; interleaved
// with the walks each one waits alone, behind a walk that has pushed the
// posting directory out of cache, and a query over S shards makes S
// times as many. On queries new to the caches that is most of a sharded
// query's time (root BenchmarkShardedQuery, 8 shards, top-k: 107 → 47
// µs; warm, 46 → 42). Caller holds the read lock.
func (ix *Index) openLocked(p *pass) {
	p.cover(ix.maxElem)
	p.mark(int(ix.nextSlot))
	p.lists = p.lists[:0]
	for _, ent := range p.order {
		p.lists = append(p.lists, ix.postings[ent.Elem])
	}
}

// thresholdStep appends to p.out this index's entities at similarity t
// or above. Its posting lists are probed, under the read lock, in
// decreasing-multiplicity order until the residual bound shows the
// unprobed tail of the query cannot reach t; the deduplicated live
// candidates that survive the length filter are verified after the lock
// is released: entries are immutable, so a concurrent Add/Remove cannot
// corrupt the snapshot — it only makes the answer reflect the index as
// of the probe.
func (ix *Index) thresholdStep(p *pass, t float64) {
	var probes, lenPruned int64
	residual := p.qUni
	residual.Sub(p.q.Extra) // extras match nothing; they never feed postings

	ix.mu.RLock()
	ix.openLocked(p)
	for i, ent := range p.order {
		if similarity.ResidualUpperBound(ix.measure, p.qUni, residual)+boundEps < t {
			break
		}
		for _, e := range p.lists[i] {
			probes++
			if e.set.ID == p.q.Set.ID {
				continue
			}
			if ix.entities[e.set.ID] != e {
				continue // tombstoned or replaced
			}
			if p.marks[e.slot] == p.epoch {
				continue
			}
			p.marks[e.slot] = p.epoch
			if similarity.SimUpperBound(ix.measure, p.qUni, e.uni)+boundEps < t {
				lenPruned++
				continue
			}
			p.cands = append(p.cands, e)
		}
		var probed similarity.UniStats
		probed.AccumulateUni(ent.Count)
		residual.Sub(probed)
	}
	ix.mu.RUnlock()

	base := len(p.out)
	for _, e := range p.cands {
		sim := ix.measure.Sim(p.qUni, e.uni, p.conj(e))
		if sim+verifyEps >= t {
			p.out = append(p.out, Match{ID: e.set.ID, Sim: sim})
		}
	}
	ix.probes.Add(probes)
	ix.candidates.Add(int64(len(p.cands)) + lenPruned)
	ix.lenPruned.Add(lenPruned)
	ix.verified.Add(int64(len(p.cands)))
	ix.results.Add(int64(len(p.out) - base))
	// Drop the entry references: a pooled pass must not pin dead
	// entities' multisets in memory.
	clear(p.cands)
	p.cands = p.cands[:0]
}

// topkStep offers this index's entities to p.heap: posting lists in
// decreasing-multiplicity order with the heap's k-th best similarity —
// whatever partition it came from — as a rising residual-bound floor.
// Verification interleaves with probing, and the whole step holds the
// read lock so the floor stays consistent with the probed snapshot.
func (ix *Index) topkStep(p *pass, k int) {
	var probes, cands, lenPruned, verified int64
	residual := p.qUni
	residual.Sub(p.q.Extra)

	ix.mu.RLock()
	ix.openLocked(p)
	for i, ent := range p.order {
		// Below k results every candidate is wanted, so the floor is 0
		// (with t=0 semantics: any overlap qualifies).
		floor := 0.0
		if len(p.heap) == k {
			floor = p.heap[0].Sim
			if similarity.ResidualUpperBound(ix.measure, p.qUni, residual) < floor-boundEps {
				break
			}
		}
		for _, e := range p.lists[i] {
			probes++
			if e.set.ID == p.q.Set.ID {
				continue
			}
			if ix.entities[e.set.ID] != e {
				continue
			}
			if p.marks[e.slot] == p.epoch {
				continue
			}
			p.marks[e.slot] = p.epoch
			cands++
			if len(p.heap) == k && similarity.SimUpperBound(ix.measure, p.qUni, e.uni) < floor-boundEps {
				lenPruned++
				continue
			}
			verified++
			//lint:vsmart-allow lockscope top-k must verify under the RLock so the rising floor keeps pruning; threshold queries verify outside it
			sim := ix.measure.Sim(p.qUni, e.uni, p.conj(e))
			p.heap.offer(Match{ID: e.set.ID, Sim: sim}, k)
			if len(p.heap) == k {
				floor = p.heap[0].Sim
			}
		}
		var probed similarity.UniStats
		probed.AccumulateUni(ent.Count)
		residual.Sub(probed)
	}
	ix.mu.RUnlock()

	ix.probes.Add(probes)
	ix.candidates.Add(cands)
	ix.lenPruned.Add(lenPruned)
	ix.verified.Add(verified)
}

// worseMatch is the single result-ordering comparator: a ranks below b on
// lower similarity, or on higher ID at equal similarities. Threshold
// sorting, the top-k heap, and the tests all defer to it, so identical
// index states always answer identically.
func worseMatch(a, b Match) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// SortMatches orders results best first under worseMatch. It is the one
// canonical result ordering: threshold queries and the top-k heap both
// defer to it, so any partitioning of the same entities answers
// identically.
func SortMatches(ms []Match) {
	// slices.SortFunc, not sort.Slice: the latter's reflect-based swapper
	// allocates, and this runs on the allocation-free query path.
	slices.SortFunc(ms, func(a, b Match) int {
		switch {
		case worseMatch(b, a):
			return -1
		case worseMatch(a, b):
			return 1
		default:
			return 0
		}
	})
}

// topkHeap is a bounded min-heap under worseMatch, so the root is always
// the match the next better candidate should evict; among equal
// similarities the smallest IDs survive.
type topkHeap []Match

func (h topkHeap) worse(i, j int) bool { return worseMatch(h[i], h[j]) }

func (h *topkHeap) offer(m Match, k int) {
	if len(*h) < k {
		*h = append(*h, m)
		i := len(*h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.worse(i, parent) {
				break
			}
			(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
			i = parent
		}
		return
	}
	if !worseMatch((*h)[0], m) {
		return // m does not beat the current k-th best
	}
	(*h)[0] = m
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(*h) && h.worse(l, least) {
			least = l
		}
		if r < len(*h) && h.worse(r, least) {
			least = r
		}
		if least == i {
			return
		}
		(*h)[i], (*h)[least] = (*h)[least], (*h)[i]
		i = least
	}
}
