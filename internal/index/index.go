// Package index implements the online half of the system: an incremental
// inverted index over multisets that answers threshold and top-k
// similarity queries against a live, mutable dataset.
//
// Where the batch join (internal/core) recomputes every pair from scratch
// on a simulated cluster, the index serves point lookups: per-element
// posting lists map alphabet elements to the entities containing them, a
// query probes the lists of its own elements to gather candidates, and the
// measure-derived bounds of internal/similarity prune the probe in two
// ways before any similarity is computed:
//
//   - prefix filter: posting lists are probed in decreasing-multiplicity
//     order, and once ResidualUpperBound shows the unprobed tail of the
//     query cannot reach the threshold the probe admits no new candidate —
//     entities overlapping the query only in that tail are provably below it;
//   - length filter: each entity's UniStats are checked with
//     SimUpperBound before it is admitted as a candidate.
//
// Scoring never reads a candidate's elements. As in the paper's
// Similarity phase, a pair's conjunctive partials are sums over the
// elements the two share, and every posting carries its entity's count of
// the element: walking the query's lists adds AccumulateConj(query count,
// posting count) to the running ConjStats of the candidate each posting
// names, and the lists past the prefix cut are still walked to finish the
// admitted candidates' sums. Sums of integers do not depend on the order
// they are taken in, so every similarity is the one similarity.ConjOf's
// merge scan gives.
//
// One query is one pass (QueryAcross) over one Index — or over several
// holding disjoint partitions of the entities, as internal/shard's Set
// does — on the caller's goroutine.
//
// Element IDs come from a multiset.Dict, so they are dense: the posting
// directory is a table indexed by element ID, as long as the largest
// element ever added. A query may name any element — one past the end
// of the table has an empty posting list, and a query never grows it.
//
// Concurrency: an Index has no lock of its own; its caller provides the
// exclusion. Mutations (ApplyBatch and its Add and Remove, BulkLoad) must
// not overlap each other or any read; reads (the queries, Len, View,
// Range, Name, Stats) may run concurrently with each other.
// vsmartjoin.Index holds its RWMutex for writing across a batch and for
// reading across a whole query, and internal/shard's Set holds one of its
// own, so a query reads one state from the probe to the names of its
// results. Because no slot changes under a query, a candidate is only its
// slot and its summed partials: scoring reads the slot's UniStats and ID
// where they lie, and a result's name is read from its slot. The traffic
// counters are atomic, as concurrent queries bump them. Stale postings
// left behind by Remove or replacement carry an outdated slot generation,
// are skipped, and are reclaimed by an amortized compaction pass.
package index

import (
	"cmp"
	"fmt"
	"slices"
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

// entry is one slot of the slot table: the multiset and UniStats of the
// live entity holding the slot, and gen, the slot's generation. Every
// posting records the generation its entity was stored under, and the
// death of a posted entity (replacement or Remove) bumps its slot's gen,
// so a posting is live iff its gen equals its slot's. A live entry is
// never modified: a replacement stores a fresh multiset, so a View taken
// earlier keeps a consistent snapshot.
//
// gen wraps at 2³²: a stale posting would pass for live again after its
// slot's gen moved 2³² more times. Every move adds at least one dead
// posting, and compaction purges the stale postings whenever dead ones
// outnumber live ones — long before that.
type entry struct {
	set multiset.Multiset
	uni similarity.UniStats
	gen uint32
}

// posting is one entity's occurrence in an element's posting list: its
// slot, the generation it was posted under and its count of the element —
// all a probe needs, with no pointer to chase.
type posting struct {
	slot  int32
	gen   uint32
	count uint32
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

	// Queries counts passes, one per QueryAcross call; the remaining
	// counters expose how far each pruning stage narrowed them: Probes
	// is posting entries walked, including those past the prefix cut
	// walked only to finish the admitted candidates' sums; Candidates is
	// distinct live entities met before the cut; LengthPruned is those
	// SimUpperBound dropped; Verified is similarities computed, one per
	// admitted candidate; Results is matches the passes returned, a
	// top-k pass's boundary ties included.
	Queries      int64
	Probes       int64
	Candidates   int64
	LengthPruned int64
	Verified     int64
	Results      int64
}

// Index is an incremental inverted similarity index. The zero value is not
// usable; construct with New. See the package doc for the exclusion its
// caller provides.
type Index struct {
	measure similarity.Measure

	// entities maps each live entity to its slot; the probe never reads
	// it, as postings name slots.
	entities map[multiset.ID]int32
	// slots is the slot table; freeSlots recycles the slots of removed
	// entities, so the table stays as dense as the peak live count.
	// names[s] is the name of slot s's entity ("" for a free slot or an
	// unnamed entity), recycled with the slot. It lies beside slots, not
	// in entry, which is one 64-byte line.
	slots     []entry
	freeSlots []int32
	names     []string
	// postings is the posting directory, indexed by element ID: grown
	// by store, never by a query. elements counts its non-empty
	// lists.
	postings [][]posting
	elements int
	// postingCount tracks total posting entries; deadPostings the stale
	// ones. Compaction triggers when dead entries outnumber live ones,
	// keeping probe work amortized-linear.
	postingCount int
	deadPostings int

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
		entities: make(map[multiset.ID]int32),
	}
}

// SetPlanner does nothing; it remains only because benchmark/ladder.go
// calls it.
func (ix *Index) SetPlanner(planner.Heuristic) {}

// Measure reports the measure the index verifies with.
func (ix *Index) Measure() similarity.Measure { return ix.measure }

// Len reports the number of live entities.
func (ix *Index) Len() int { return len(ix.entities) }

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

// store puts m, named name, in slot s under the slot's current
// generation and appends it to its elements' posting lists.
func (ix *Index) store(s int32, m multiset.Multiset, name string) {
	e := &ix.slots[s]
	e.set, e.uni = m, similarity.UniOf(m)
	ix.names[s] = name
	for _, ent := range m.Entries {
		if n := int(ent.Elem) + 1; n > len(ix.postings) {
			ix.postings = append(ix.postings, make([][]posting, n-len(ix.postings))...)
		}
		list := ix.postings[ent.Elem]
		if len(list) == 0 {
			ix.elements++
		}
		ix.postings[ent.Elem] = append(list, posting{slot: s, gen: e.gen, count: ent.Count})
	}
	ix.postingCount += len(m.Entries)
	ix.entities[m.ID] = s
}

// kill retires the entity in slot s: its postings go stale and the
// slot lets go of its multiset and name.
func (ix *Index) kill(s int32) {
	e := &ix.slots[s]
	if n := len(e.set.Entries); n > 0 {
		ix.deadPostings += n
		e.gen++
	}
	e.set, ix.names[s] = multiset.Multiset{}, ""
}

// BatchOp is one mutation of an ApplyBatch: an upsert of Set, named
// Name, when Remove is false, a deletion of ID when it is true.
type BatchOp struct {
	Remove bool
	ID     multiset.ID       // deletion target (Remove only)
	Set    multiset.Multiset // upsert payload (Add only); the index takes ownership
	Name   string            // the upserted entity's name (Add only), which Name and QueryNamed report
}

// ApplyBatch applies ops in order and reports how many removals found
// their entity — the one mutation path of a live index (BulkLoad is the
// sealed path for an empty one). The compaction-trigger check runs once
// per batch instead of once per mutation. A replacement keeps its
// entity's slot under the next generation.
func (ix *Index) ApplyBatch(ops []BatchOp) (removed int) {
	if len(ops) == 0 {
		return 0
	}
	adds := 0
	for _, op := range ops {
		if op.Remove {
			if s, ok := ix.entities[op.ID]; ok {
				delete(ix.entities, op.ID)
				ix.kill(s)
				ix.freeSlots = append(ix.freeSlots, s)
				removed++
			}
			continue
		}
		s, ok := ix.entities[op.Set.ID]
		switch {
		case ok:
			ix.kill(s)
		case len(ix.freeSlots) > 0:
			s = ix.freeSlots[len(ix.freeSlots)-1]
			ix.freeSlots = ix.freeSlots[:len(ix.freeSlots)-1]
		default:
			s = int32(len(ix.slots))
			ix.slots = append(ix.slots, entry{})
			ix.names = append(ix.names, "")
		}
		ix.store(s, op.Set, op.Name)
		adds++
	}
	ix.maybeCompact()
	ix.adds.Add(int64(adds))
	ix.removes.Add(int64(removed))
	return removed
}

// BulkLoad ingests entities in strictly ascending ID order into an
// empty index — the sealed fast path a bulk-built snapshot loads
// through. Unlike repeated Add it skips the whole upsert machinery:
// no per-entity existence check, no tombstone accounting, no
// compaction-trigger evaluation, and the entity and slot tables are
// sized once. The resulting structures are exactly what the same Adds
// would have built (posting lists append in ID order either way), so
// queries answer identically. The index takes ownership of the
// multisets. names, when given, holds the entities' names, one per set;
// without it every entity is unnamed. A non-empty index, an ID-order
// violation or a names list of another length is an error and leaves
// the index unchanged.
func (ix *Index) BulkLoad(sets []multiset.Multiset, names ...string) error {
	if len(ix.entities) != 0 || ix.postingCount != 0 {
		return fmt.Errorf("index: bulk load into a non-empty index (%d entities)", len(ix.entities))
	}
	if names != nil && len(names) != len(sets) {
		return fmt.Errorf("index: bulk load: %d names for %d entities", len(names), len(sets))
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
	ix.entities = make(map[multiset.ID]int32, len(sets))
	ix.slots, ix.freeSlots = make([]entry, len(sets)), nil
	ix.names = make([]string, len(sets))
	for i, m := range sets {
		name := ""
		if names != nil {
			name = names[i]
		}
		ix.store(int32(i), m, name)
	}
	// Repack the lists into one array of the exact total: append's
	// doubling leaves up to half of every list's capacity unused.
	all := make([]posting, 0, ix.postingCount)
	for elem, list := range ix.postings {
		if len(list) > 0 {
			all = append(all, list...)
			ix.postings[elem] = all[len(all)-len(list) : len(all) : len(all)]
		}
	}
	// Bulk-loaded entities are mutations like any other: a daemon
	// bootstrapped from snapshot files must report the entities it
	// serves in Stats.Adds (and /readyz's mutation counter), not 0.
	ix.adds.Add(int64(len(sets)))
	return nil
}

// maybeCompact rewrites every posting list without stale entries once
// they outnumber live ones.
func (ix *Index) maybeCompact() {
	if ix.deadPostings <= ix.postingCount-ix.deadPostings {
		return
	}
	for elem, list := range ix.postings {
		if len(list) == 0 {
			continue
		}
		w := 0
		for _, p := range list {
			if ix.slots[p.slot].gen == p.gen {
				list[w] = p
				w++
			}
		}
		if w == 0 {
			ix.postings[elem] = nil
			ix.elements--
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
// over a capture of the entity table taken when Range starts, so fn may
// query the index, and a caller that drops its read exclusion before
// calling back may mutate it, at the price of not observing entities
// added after Range started.
func (ix *Index) Range(fn func(m multiset.Multiset) bool) {
	snap := make([]multiset.Multiset, 0, len(ix.entities))
	for _, s := range ix.entities {
		snap = append(snap, ix.slots[s].set)
	}
	slices.SortFunc(snap, func(a, b multiset.Multiset) int { return cmp.Compare(a.ID, b.ID) })
	for _, m := range snap {
		if !fn(m) {
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
	if s, ok := ix.entities[id]; ok {
		return ix.slots[s].set
	}
	return multiset.Multiset{ID: id}
}

// Name returns the name the entity was stored under, or "" if the ID is
// not indexed.
func (ix *Index) Name(id multiset.ID) string {
	if s, ok := ix.entities[id]; ok {
		return ix.names[s]
	}
	return ""
}

// Snapshot is View, copied.
func (ix *Index) Snapshot(id multiset.ID) multiset.Multiset { return ix.View(id).Clone() }

// Stats returns a snapshot of the index counters.
func (ix *Index) Stats() Stats {
	s := Stats{
		Entities: len(ix.entities),
		Elements: ix.elements,
		Postings: ix.postingCount,
	}
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
// partition count), the candidate accumulators and epoch-stamped slot
// marks each partition's probe reuses, the matches — a top-k query's
// bounded heap and its boundary ties — and the floor's scratch heap.
// One pass runs over every partition in order (run), which is what lets
// a top-k query prune every partition against the floor the earlier
// ones already raised. A pass is owned by exactly one query between run
// and release; pooling them makes the steady-state query path
// allocation-free.
type pass struct {
	q     Query
	qUni  similarity.UniStats
	order []multiset.Entry
	cands []cand
	// marks[slot].epoch == epoch iff the current partition's probe met
	// the slot's live entity; bumping epoch resets the whole table in
	// O(1).
	marks []mark
	epoch uint32
	// hits holds a threshold query's matches, or a top-k query's heap of
	// its k best.
	hits topkHeap
	// ties holds every match the heap turned away or evicted whose
	// similarity is within verifyEps of the heap's root (offer).
	ties  []hit
	floor topkHeap
	// lists[i] is the posting list of order[i] in the partition being
	// probed (Index.open).
	lists [][]posting
}

// cand is one admitted candidate of the partition being probed: its
// slot, the generation that tells its own postings from stale ones
// naming the same slot, and the conjunctive partials summed so far.
// No slot changes under a query, so scoring reads the candidate's
// UniStats and ID from the slot table.
type cand struct {
	slot int32
	gen  uint32
	conj similarity.ConjStats
}

// hit is a scored match and its slot in the partition it came from,
// which names it (QueryNamed).
type hit struct {
	Match
	slot int32
}

// mark is a slot's stamp in the current probe: cand indexes p.cands, or
// is -1 for an entity met but not admitted (the query's own, or one the
// length filter dropped).
type mark struct {
	epoch uint32
	cand  int32
}

var passPool = sync.Pool{New: func() any { return new(pass) }}

// begin readies a pooled pass for q.
func (p *pass) begin(q Query) {
	p.q, p.qUni = q, queryStats(q)
	p.order = append(p.order[:0], q.Set.Entries...)
	sortProbeOrder(p.order)
	p.hits, p.ties = p.hits[:0], p.ties[:0]
}

// release puts the pass back in the pool, the caller's query dropped.
func (p *pass) release() {
	p.q = Query{}
	clear(p.lists) // a pooled pass must not pin a compacted-away posting array
	passPool.Put(p)
}

// mark readies the slot marks for one probe over a partition of limit
// slots.
func (p *pass) mark(limit int) {
	if cap(p.marks) < limit {
		// A fresh zeroed table is correct at any epoch > 0: no slot was
		// stamped with the current epoch yet.
		p.marks = make([]mark, limit+limit/2+16)
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

// run answers q over parts in one pass on the caller's goroutine and
// returns it holding the matches, for the caller to read and release;
// nil when there is nothing to probe. The counters of a pass over
// several partitions are kept on the last: which partition a query or a
// result came from is not tracked, the sum is what Stats consumers read.
func run(parts []*Index, q Query, t float64, k int) *pass {
	last := parts[len(parts)-1]
	last.queries.Add(1)
	if k == 0 || len(q.Set.Entries) == 0 {
		return nil
	}
	p := passPool.Get().(*pass)
	p.begin(q)
	for _, ix := range parts {
		ix.step(p, t, k)
	}
	if k > 0 {
		last.results.Add(int64(len(p.hits) + len(p.ties)))
	}
	return p
}

// QueryAcross answers q over parts, disjoint partitions of one entity
// set, in a single pass on the caller's goroutine, appending to buf
// (typically a reused buffer truncated to buf[:0], which keeps the
// steady-state path allocation-free): the threshold query at t when
// k < 0, the top-k query otherwise. The appended matches are sorted
// (decreasing similarity, ID ascending on ties), but for a top-k
// query's boundary ties; buf's existing contents are preserved. Each
// partition is probed in order with the one pass state: a threshold
// query collects every partition's matches and sorts once; a top-k
// query carries one bounded heap through all of them, so each partition
// starts from the floor the previous ones raised and the heap after the
// last partition is the global top-k — an entity is pruned only when
// its bound is below k similarities already bounded from below, which
// keeps it out of any partitioning's answer. One partition is the
// single-index query.
//
// A top-k answer includes the boundary ties: after the k best comes,
// in no particular order, every other match whose similarity passes
// the threshold query's inclusion test at the k-th best's, so a caller
// that breaks ties by something other than ID (names) can pick its k
// without a second pass. A tie's bound is never below floor − boundEps,
// so the pruning that finds the k best finds the ties too.
func QueryAcross(parts []*Index, q Query, t float64, k int, buf []Match) []Match {
	p := run(parts, q, t, k)
	if p == nil {
		return buf
	}
	base := len(buf)
	for _, h := range p.hits {
		buf = append(buf, h.Match)
	}
	SortMatches(buf[base:])
	for _, h := range p.ties {
		buf = append(buf, h.Match)
	}
	p.release()
	return buf
}

// Named is one match of QueryNamed: the entity's name and similarity.
type Named struct {
	Name string
	Sim  float64
}

// QueryNamed is QueryAcross over this one index, appending each match's
// name and similarity to buf in no particular order, a top-k query's
// boundary ties included. Each name is read from the slot the probe
// found, so it is the name of the entity the match was scored against.
func (ix *Index) QueryNamed(q Query, t float64, k int, buf []Named) []Named {
	p := run([]*Index{ix}, q, t, k)
	if p == nil {
		return buf
	}
	for _, h := range p.hits {
		buf = append(buf, Named{Name: ix.names[h.slot], Sim: h.Sim})
	}
	for _, h := range p.ties {
		buf = append(buf, Named{Name: ix.names[h.slot], Sim: h.Sim})
	}
	p.release()
	return buf
}

// QueryThresholdInto appends to buf every indexed entity whose
// similarity to q is at least t: QueryAcross over this one index. An
// entity whose ID equals the query's own ID is never a candidate
// (self-pairs are meaningless; use ID 0 for ad-hoc queries).
func (ix *Index) QueryThresholdInto(q Query, t float64, buf []Match) []Match {
	return QueryAcross([]*Index{ix}, q, t, -1, buf)
}

// QueryTopKInto appends to buf the k most similar indexed entities:
// QueryAcross over this one index, cut to k.
//
// The same pass serves k-nearest-neighbor queries: under the distance
// d = 1 − Sim, "distance ascending" and "similarity descending" are the
// same order and the rising k-th-distance floor is this floor, so the
// layers above ask for the top k and compute distances where they name
// the results (vsmartjoin.Index.Query).
func (ix *Index) QueryTopKInto(q Query, k int, buf []Match) []Match {
	k, base := max(k, 0), len(buf)
	buf = QueryAcross([]*Index{ix}, q, 0, k, buf)
	if len(buf)-base > k { // the boundary ties follow the k best
		buf = buf[:base+k]
	}
	return buf
}

// Neighbor and QueryKNNInto remain only because benchmark/ladder.go
// names them (its index.knn_ns rung): a neighbor is a Match and the kNN
// pass is the top-k pass.
type Neighbor = Match

// QueryKNNInto is QueryTopKInto; see Neighbor.
func (ix *Index) QueryKNNInto(q Query, k int, buf []Neighbor) []Neighbor {
	return ix.QueryTopKInto(q, k, buf)
}

// open readies p for a probe of this index: the marks cover its slots,
// and p.lists holds the posting list of every query element — a
// directory slot each, read back to back before any list is walked, and
// nil for an element past the directory's end. The reads are
// independent, so their cache misses overlap; interleaved with the walks
// each one waits alone, behind a walk that has pushed the directory out
// of cache.
func (ix *Index) open(p *pass) {
	p.mark(len(ix.slots))
	p.lists = p.lists[:0]
	for _, ent := range p.order {
		var list []posting
		if ent.Elem < multiset.Elem(len(ix.postings)) {
			list = ix.postings[ent.Elem]
		}
		p.lists = append(p.lists, list)
	}
}

// step runs q's probe of this index (gather), then scores the admitted
// candidates from their summed partials and their slots' UniStats: a
// threshold query (k < 0) appends those at similarity t or above to
// p.hits, a top-k query offers them all to the heap.
func (ix *Index) step(p *pass, t float64, k int) {
	probes, lenPruned := ix.gather(p, t, k)

	base := len(p.hits)
	for _, c := range p.cands {
		e := &ix.slots[c.slot]
		h := hit{Match{ID: e.set.ID, Sim: ix.measure.Sim(p.qUni, e.uni, c.conj)}, c.slot}
		if k > 0 {
			p.offer(h, k)
		} else if h.Sim+verifyEps >= t {
			p.hits = append(p.hits, h)
		}
	}
	ix.probes.Add(probes)
	ix.candidates.Add(int64(len(p.cands)) + lenPruned)
	ix.lenPruned.Add(lenPruned)
	ix.verified.Add(int64(len(p.cands)))
	if k < 0 {
		ix.results.Add(int64(len(p.hits) - base))
	}
	p.cands = p.cands[:0]
}

// gather walks this index's posting lists of q in decreasing query
// multiplicity, adding each posting's shared-element partials to the
// candidate the posting names. An entity is admitted on its first live
// posting unless it is the query itself or the length filter drops it,
// until the residual bound shows the unprobed tail of the query cannot
// reach the floor; from then on the walk only finishes the admitted
// candidates' sums, and ends at once if there are none.
//
// The floor is t for a threshold query. For a top-k query it is the k-th
// best of the heap's exact similarities and the admitted candidates'
// partial ones (partialFloor), recomputed when the candidates first
// number k and before any list longer than the candidate count, so it
// rises inside a partition as well as across them.
func (ix *Index) gather(p *pass, t float64, k int) (probes, lenPruned int64) {
	residual := p.qUni
	residual.Sub(p.q.Extra) // extras match nothing; they never feed postings
	floor, admitting := t, true
	ix.open(p)
	for i, ent := range p.order {
		list := p.lists[i]
		if admitting {
			if k > 0 && len(list) > len(p.cands) {
				floor = ix.partialFloor(p, k)
			}
			admitting = similarity.ResidualUpperBound(ix.measure, p.qUni, residual) >= floor-boundEps
		}
		if !admitting {
			if len(p.cands) == 0 {
				break
			}
			p.finish(list, ent.Count)
			probes += int64(len(list))
			continue
		}
		probes += int64(len(list))
		marks, epoch := p.marks, p.epoch
		for _, post := range list {
			m := &marks[post.slot]
			if m.epoch == epoch {
				if m.cand >= 0 && p.cands[m.cand].gen == post.gen {
					p.cands[m.cand].conj.AccumulateConj(ent.Count, post.count)
				}
				continue
			}
			e := &ix.slots[post.slot]
			if e.gen != post.gen {
				continue // tombstoned or replaced
			}
			m.epoch, m.cand = epoch, -1
			if e.set.ID == p.q.Set.ID {
				continue
			}
			if similarity.SimUpperBound(ix.measure, p.qUni, e.uni) < floor-boundEps {
				lenPruned++
				continue
			}
			m.cand = int32(len(p.cands))
			c := cand{slot: post.slot, gen: post.gen}
			c.conj.AccumulateConj(ent.Count, post.count)
			p.cands = append(p.cands, c)
			if len(p.cands) == k {
				floor = ix.partialFloor(p, k)
			}
		}
		var probed similarity.UniStats
		probed.AccumulateUni(ent.Count)
		residual.Sub(probed)
	}
	return probes, lenPruned
}

// offer puts h into the top-k heap and keeps the boundary ties: a match
// the heap turns away or evicts joins p.ties when its similarity is
// within verifyEps of the heap's root, and whenever the root rises the
// ties that fell out of reach are dropped. The root only rises, so a
// match within reach of the final root was within reach when it left
// the heap, and p.ties ends as exactly those matches.
func (p *pass) offer(h hit, k int) {
	if len(p.hits) < k {
		p.hits.offer(h, k)
		return
	}
	if root := p.hits[0]; worseMatch(root.Match, h.Match) {
		p.hits.offer(h, k)
		h = root
		if floor := p.hits[0].Sim; floor > root.Sim {
			w := 0
			for _, tie := range p.ties {
				if tie.Sim+verifyEps >= floor {
					p.ties[w] = tie
					w++
				}
			}
			p.ties = p.ties[:w]
		}
	}
	if h.Sim+verifyEps >= p.hits[0].Sim {
		p.ties = append(p.ties, h)
	}
}

// finish adds the partials of list, the posting list of an element the
// query holds count of, to the admitted candidates it names.
func (p *pass) finish(list []posting, count uint32) {
	marks, cands, epoch := p.marks, p.cands, p.epoch
	for _, post := range list {
		if m := marks[post.slot]; m.epoch == epoch && m.cand >= 0 && cands[m.cand].gen == post.gen {
			cands[m.cand].conj.AccumulateConj(count, post.count)
		}
	}
}

// partialFloor is the top-k floor mid-probe: the k-th best of the
// heap's exact similarities and the admitted candidates' partial ones,
// or 0 while there are fewer than k of them. Every supported measure is
// nondecreasing in its conjunctive partials (similarity/bounds.go), so a
// partial similarity never exceeds the final one, and the floor never
// exceeds the final k-th best.
func (ix *Index) partialFloor(p *pass, k int) float64 {
	if len(p.hits)+len(p.cands) < k {
		return 0
	}
	p.floor = append(p.floor[:0], p.hits...) // a heap's copy is a heap
	for _, c := range p.cands {
		p.floor.offer(hit{Match: Match{Sim: ix.measure.Sim(p.qUni, ix.slots[c.slot].uni, c.conj)}}, k)
	}
	return p.floor[0].Sim
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
type topkHeap []hit

func (h topkHeap) worse(i, j int) bool { return worseMatch(h[i].Match, h[j].Match) }

func (h *topkHeap) offer(m hit, k int) {
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
	if !worseMatch((*h)[0].Match, m.Match) {
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
