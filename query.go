package vsmartjoin

// The public read path. Every online query — threshold, top-k, kNN; by
// element multiset or by indexed entity — is one Query value answered
// by one method, Index.Query (and, over a cluster of nodes,
// Cluster.Query): validate → look up an element query's names → result
// cache, keyed by the interned form → one read hold of ix.mu across the
// rest: an entity query's subject, one pass over the inner index, which
// returns a top-k or kNN query's boundary ties beside its k best and the
// names of their slots, and the pad of a short kNN list (O(results + k)
// whatever the index holds) → re-break ties by name and cut, outside the
// hold → cache fill. Every mutation holds ix.mu for writing, so an answer
// is exactly the index between two Apply calls: Query is linearizable. The
// named methods (QueryThreshold, QueryEntity, QueryTopK, QueryKNN,
// QueryKNNEntity) are conveniences over it.
//
// Below this file similarity is the only currency: the inner index
// answers threshold and top-k queries in (similarity, entity ID)
// order and knows nothing of distances. kNN under d = 1 − similarity IS
// top-k — d is decreasing in the similarity, so "nearest first" is
// "most similar first" and the rising k-th-distance floor the
// literature prunes with is the top-k pass's rising similarity floor.
// Distances exist only on the Neighbor values resolveLocked produces,
// and canonical is the one place the ties 1 − sim creates (adjacent
// similarities can round to one distance) are re-broken, by name.

import (
	"context"
	"fmt"
	"sync"

	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/index"
	"vsmartjoin/internal/metrics"
	"vsmartjoin/internal/multiset"
)

// Match is one similarity query result, {Entity string; Similarity
// float64} (JSON "entity", "similarity"). Results are always ordered
// canonically: decreasing similarity, entity name ascending on ties.
// Name-based tie-breaking (rather than internal entity IDs) is what
// makes results reproducible across every deployment shape — a single
// index and a Cluster of independent nodes (each with its own private
// ID space) answer byte-identically.
type Match = cluster.Match

// Neighbor is one kNN query result, {Entity string; Distance float64}
// (JSON "entity", "distance"): an indexed entity at distance
// 1 − similarity from the query. Results are always ordered
// canonically: distance ascending, entity name ascending on ties.
type Neighbor = cluster.Neighbor

// Query is one online similarity query, the argument of Index.Query and
// Cluster.Query: the subject (Entity string, an indexed entity by name
// and excluded from its own answer, or else Elements map[string]uint32,
// an ad-hoc multiset), the Kind of answer wanted (a QueryKind, zero
// value KindThreshold), and the kind's parameter (Threshold float64, or
// K int). The types are declared once, in an internal package shared
// with the cluster router, and exported here as aliases.
type Query = cluster.Query

// QueryKind selects what a Query asks for.
type QueryKind = cluster.QueryKind

const (
	// KindThreshold asks for every entity whose similarity to the query
	// is at least Query.Threshold, which must lie in [0, 1]. A zero
	// threshold returns every entity sharing at least one element with
	// the query — the same overlap convention as AllPairs.
	KindThreshold = cluster.KindThreshold
	// KindTopK asks for the Query.K (positive) most similar entities
	// among those sharing an element with the query.
	KindTopK = cluster.KindTopK
	// KindKNN asks for the Query.K (positive) nearest entities under
	// the distance 1 − similarity. When fewer than K entities overlap
	// the query the list is padded with non-overlapping ones — all at
	// distance exactly 1, in ascending name order; overlap means
	// distance < 1 strictly, so the pad is a pure suffix of the
	// canonical order — and is shorter than K only when fewer than K
	// entities are indexed.
	KindKNN = cluster.KindKNN
)

// QueryResult is a query answer in the canonical order: Matches []Match
// for KindThreshold and KindTopK queries, Neighbors []Neighbor for
// KindKNN ones (the other field is nil).
type QueryResult = cluster.QueryResult

// Query answers q against the index as it stood at one instant during
// the call; the context is accepted for symmetry with Cluster.Query and
// unused, the index being local. The answer is independent of insertion
// order: where more than K entities tie at the K-th best similarity (or
// distance) the smallest names win, so selection is a pure function of
// the indexed (name, multiset) pairs. It fails on a malformed query
// (threshold outside [0, 1], K not positive, both Entity and Elements
// set) and on an Entity that is not indexed; an Elements query cannot
// fail otherwise. K beyond any possible entity count is the same
// request as K = Len().
func (ix *Index) Query(_ context.Context, q Query) (QueryResult, error) {
	if err := cluster.CheckQuery(&q); err != nil {
		return QueryResult{}, fmt.Errorf("vsmartjoin: %w", err)
	}
	bp := matchBufPool.Get().(*queryBuf)
	defer matchBufPool.Put(bp)
	// Read before the elements are looked up; cache.go says why a hit on
	// it, and a lookup made before the hold, are exact.
	gen := ix.gen.Load()
	var iq index.Query
	if q.Entity == "" {
		iq = ix.buildQuery(q.Elements, bp)
	}
	if ix.cache == nil {
		res, _, err := ix.query(q, iq, gen, bp)
		return res, err
	}
	bp.key = appendKey(bp.key[:0], ix.measure.Name(), q, iq)
	if res, ok := ix.cache.get(bp.key, gen); ok {
		return res, nil
	}
	res, stamp, err := ix.query(q, iq, gen, bp)
	if err != nil {
		return QueryResult{}, err // an entity that is not indexed counts as no miss
	}
	ix.cache.misses.Add(1)
	ix.cache.put(bp.key, stamp, res)
	return res, nil
}

// query is Query below the cache, for iq, an Elements query's lookup made
// at generation gen (an Entity query's is resolved here): one read hold
// of ix.mu across the subject, the pass over the inner index and
// resolveLocked, so the answer, and the generation it reports for the
// cache stamp, are one state's. An Apply between the lookup and the
// hold may have interned an element the lookup found unknown: then the
// lookup, and the cache key built from it, are redone in the hold.
func (ix *Index) query(q Query, iq index.Query, gen uint64, bp *queryBuf) (QueryResult, uint64, error) {
	start, timed := bp.sample()
	ix.mu.RLock()
	stamp := ix.gen.Load()
	switch {
	case q.Entity != "":
		id, ok := ix.byName[q.Entity]
		if !ok {
			ix.mu.RUnlock()
			return QueryResult{}, 0, fmt.Errorf("vsmartjoin: entity %q not indexed", q.Entity)
		}
		// The entity's own ID rides along, so the index skips the self-pair.
		iq.Set = ix.inner.View(id)
	case stamp != gen && len(bp.unknown) > 0:
		iq = ix.buildQuery(q.Elements, bp)
		if ix.cache != nil {
			bp.key = appendKey(bp.key[:0], ix.measure.Name(), q, iq)
		}
	}
	t, k := q.Threshold, -1
	if q.Kind != KindThreshold {
		// The k best and every match tied with the k-th
		// (index.QueryAcross): the heap broke ties by entity ID, and
		// canonical's sort re-picks among them by name. The
		// inclusion tolerance dwarfs the similarity gaps one distance
		// can hide, so the kNN ties 1 − sim creates are there too.
		t, k = 0, q.K
	}
	bp.ms = ix.inner.QueryNamed(iq, t, k, bp.ms[:0])
	res := ix.resolveLocked(bp.ms, q)
	ix.mu.RUnlock()
	res = canonical(res, q, len(bp.ms))
	if timed {
		ix.queryLatency.ObserveSince(start)
	}
	return res, stamp, nil
}

// QueryThreshold is Query for a KindThreshold query by elements.
func (ix *Index) QueryThreshold(counts map[string]uint32, t float64) ([]Match, error) {
	res, err := ix.Query(context.Background(), Query{Elements: counts, Threshold: t})
	return res.Matches, err
}

// QueryEntity is Query for a KindThreshold query by indexed entity.
func (ix *Index) QueryEntity(entity string, t float64) ([]Match, error) {
	res, err := ix.Query(context.Background(), Query{Entity: entity, Threshold: t})
	return res.Matches, err
}

// QueryTopK is Query for a KindTopK query by elements; a non-positive k
// asks for nothing and returns nil.
func (ix *Index) QueryTopK(counts map[string]uint32, k int) []Match {
	if k <= 0 {
		return nil
	}
	res, _ := ix.Query(context.Background(), Query{Elements: counts, Kind: KindTopK, K: k}) // a valid Elements query cannot fail
	return res.Matches
}

// QueryKNN is Query for a KindKNN query by elements; a non-positive k
// asks for nothing and returns nil.
func (ix *Index) QueryKNN(counts map[string]uint32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	res, _ := ix.Query(context.Background(), Query{Elements: counts, Kind: KindKNN, K: k}) // a valid Elements query cannot fail
	return res.Neighbors
}

// QueryKNNEntity is Query for a KindKNN query by indexed entity; a
// non-positive k asks for nothing and returns nil.
func (ix *Index) QueryKNNEntity(entity string, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	res, err := ix.Query(context.Background(), Query{Entity: entity, Kind: KindKNN, K: k})
	return res.Neighbors, err
}

// buildQuery maps query element names into the index alphabet without
// interning them, into bp's pooled entries: one hold of the
// dictionary's own lock resolves the whole map. Unknown elements can
// match nothing, but they still count toward the query's cardinalities
// (every measure's denominator), so they are folded into the query's
// Extra stats.
func (ix *Index) buildQuery(counts map[string]uint32, bp *queryBuf) index.Query {
	// Map iteration order is irrelevant here: Extra accumulation is
	// commutative and the entries are sorted by element below. Map keys
	// are distinct and zero counts are skipped, so there is nothing for
	// multiset.New to merge, and its copy is spared.
	var q index.Query
	bp.entries, bp.unknown = ix.dict.LookupCounts(counts, bp.entries[:0], bp.unknown[:0])
	for _, c := range bp.unknown {
		q.Extra.AccumulateUni(c)
	}
	multiset.SortEntries(bp.entries)
	q.Set = multiset.Multiset{Entries: bp.entries}
	return q
}

// resolveLocked turns the inner index's named matches into q's public
// result — for kNN the one place distances are computed — and pads a
// kNN list with fewer than q.K overlapping entities from the name table
// of the same state. Caller holds ix.mu.
func (ix *Index) resolveLocked(ms []index.Named, q Query) QueryResult {
	var res QueryResult
	if q.Kind != KindKNN {
		res.Matches = make([]Match, len(ms))
		for i, m := range ms {
			res.Matches[i] = Match{Entity: m.Name, Similarity: m.Sim}
		}
		return res
	}
	// Room for the pad: it can only run when len(ms) < q.K.
	res.Neighbors = make([]Neighbor, len(ms), max(len(ms), min(q.K, len(ix.byName))))
	for i, m := range ms {
		res.Neighbors[i] = Neighbor{Entity: m.Name, Distance: 1 - m.Sim}
	}
	if len(ms) < q.K {
		// Fewer than k entities overlap the query, so the list already
		// holds every overlapping one.
		res.Neighbors = ix.padKNNLocked(res.Neighbors, q.K, q.Entity)
	}
	return res
}

// canonical puts res, resolveLocked's answer to q with its first overlap
// entries from the inner index, in the canonical public order, cut to
// q.K, with no lock held: the inner index breaks ties by entity ID,
// which is meaningless outside one process, and in distance space 1 − sim
// is order-reversing but not injective (adjacent similarities can round
// to one distance), so the distance ties it creates are re-broken by name
// here too. A kNN pad follows every overlapping entity, at distance 1, in
// name order already.
func canonical(res QueryResult, q Query, overlap int) QueryResult {
	cluster.SortMatches(res.Matches)
	cluster.SortNeighbors(res.Neighbors[:min(overlap, len(res.Neighbors))])
	if q.Kind != KindThreshold {
		res.Matches = res.Matches[:min(len(res.Matches), q.K)]
		res.Neighbors = res.Neighbors[:min(len(res.Neighbors), q.K)]
	}
	return res
}

// padKNNLocked appends the first k−len(out) indexed entities not
// already in out (and not self, the query's own entity) in ascending
// name order, each at distance 1, by walking the order-maintained name
// table from its head. The walk passes over at most len(out)+1 names it
// must skip, so a pad costs O(k) map operations and name-table steps
// however many entities are indexed: a short kNN list is not rare (any
// query with fewer than k overlapping entities gets one), and its cost
// is paid holding the read lock every writer queues behind. Caller
// holds ix.mu.
func (ix *Index) padKNNLocked(out []Neighbor, k int, self string) []Neighbor {
	skip := make(map[string]struct{}, len(out)+1)
	for _, n := range out {
		skip[n.Entity] = struct{}{}
	}
	if self != "" {
		skip[self] = struct{}{}
	}
	for name := range ix.order.all() {
		if len(out) == k {
			break
		}
		if _, ok := skip[name]; !ok {
			out = append(out, Neighbor{Entity: name, Distance: 1})
		}
	}
	return out
}

// queryBuf is the pooled per-query state of the public read path, held
// by one Query from the element lookup to the cache fill: the interned
// query's entries and its unknown elements' counts (buildQuery), the
// cache key, the named-match staging buffer (QueryNamed fills it,
// resolveLocked translates it into public results) — none of which
// reaches a caller, so pooling is safe — plus a latency-sampling tick. Query latency is
// observed on one query in eight per buffer: the two clock reads and
// the histogram's shared-cacheline bump leave the hot path seven times
// out of eight, keeping the uncached read at its pre-instrumentation
// cost, while the sampled digest still converges on the steady-state
// distribution (sampling is unbiased — the tick has no correlation
// with query difficulty).
type queryBuf struct {
	entries []multiset.Entry
	unknown []uint32
	key     []byte
	ms      []index.Named
	tick    uint8
}

// sample advances the buffer's tick and stamps the clock on the queries
// it elects to time: the first query through a fresh buffer (so a
// lightly used index still populates the digest), then every eighth.
func (b *queryBuf) sample() (metrics.Stamp, bool) {
	b.tick++
	if b.tick&7 != 1 {
		return metrics.Stamp{}, false
	}
	return metrics.Now(), true
}

var matchBufPool = sync.Pool{New: func() any { return new(queryBuf) }}
