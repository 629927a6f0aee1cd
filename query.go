package vsmartjoin

// The public read path. Every online query — threshold, top-k, kNN; by
// element multiset or by indexed entity — is one Query value answered
// by one method, Index.Query (and, over a cluster of nodes,
// Cluster.Query): validate → result cache → intern or look up the query
// → one pass over the inner index → boundary-tie re-query → resolve IDs to
// names and pad a short kNN list (one read-lock hold, O(results + k)
// whatever the index holds) → cache fill. The named methods
// (QueryThreshold, QueryEntity, QueryTopK, QueryKNN, QueryKNNEntity) are
// conveniences over it.
//
// Below this file similarity is the only currency: the inner index
// answers threshold and top-k queries in (similarity, entity ID)
// order and knows nothing of distances. kNN under d = 1 − similarity IS
// top-k — d is decreasing in the similarity, so "nearest first" is
// "most similar first" and the rising k-th-distance floor the
// literature prunes with is the top-k pass's rising similarity floor.
// Distances exist only on the Neighbor values resolve produces, and
// that is also the one place the ties 1 − sim creates (adjacent
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

// SortMatchesByName orders matches best first under the canonical
// public ordering (similarity descending, entity name ascending on
// ties). Query results are already sorted; the function is exported for
// callers merging match lists from several sources.
func SortMatchesByName(ms []Match) { cluster.SortMatches(ms) }

// SortNeighborsByName is SortMatchesByName for kNN lists (distance
// ascending, entity name ascending on ties).
func SortNeighborsByName(ns []Neighbor) { cluster.SortNeighbors(ns) }

// Query answers q against the index as of the call; the context is
// accepted for symmetry with Cluster.Query and unused, the index being
// local. The answer is independent of insertion order: where more than K entities tie at the K-th best similarity (or
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
	if ix.cache == nil {
		return ix.query(q)
	}
	ks := keyScratchPool.Get().(*keyScratch)
	defer ks.release()
	ks.build(ix.measure.Name(), q)
	// The generation is read BEFORE the entity lookup and the query run:
	// a mutation racing the fill leaves a stale stamp behind, so the
	// entry can only be a false miss later, never a stale hit.
	gen := ix.gen.Load()
	if res, ok := ix.cache.get(ks.b, gen); ok {
		return res, nil
	}
	res, err := ix.query(q)
	if err == nil {
		ix.cache.put(ks.b, gen, res)
	}
	return res, err
}

// query is Query below the cache.
func (ix *Index) query(q Query) (QueryResult, error) {
	var iq index.Query
	if q.Entity == "" {
		iq = ix.buildQuery(q.Elements)
	} else {
		// The name and its multiset are read in one ix.mu hold, so the
		// probe never carries a dead ID; it carries the entity's own ID so
		// the index skips the self-pair.
		ix.mu.RLock()
		id, ok := ix.byName[q.Entity]
		if ok {
			iq = index.Query{Set: ix.inner.View(id)}
		}
		ix.mu.RUnlock()
		if !ok {
			return QueryResult{}, fmt.Errorf("vsmartjoin: entity %q not indexed", q.Entity)
		}
	}
	bp := matchBufPool.Get().(*queryBuf)
	start, timed := bp.sample()
	k := q.K
	var ms []index.Match
	if q.Kind == KindThreshold {
		ms = ix.inner.QueryThresholdInto(iq, q.Threshold, bp.ms[:0])
	} else {
		// Probe for k+1: the extra result is a tie detector. If the k-th
		// and (k+1)-th best differ (or fewer than k+1 exist), no tied
		// entity was evicted at the boundary and the heap's selection is
		// already the canonical one — the common case, served by one pass.
		ms = ix.inner.QueryTopKInto(iq, k+1, bp.ms[:0])
		if len(ms) == k+1 {
			tied := ms[k-1].Sim == ms[k].Sim
			if q.Kind == KindKNN {
				tied = 1-ms[k-1].Sim == 1-ms[k].Sim
			}
			if tied {
				// Ties straddle the boundary, and the heap broke them by
				// entity ID; fetch every entity at or above the boundary
				// similarity and let the canonical sort pick by name
				// (the threshold path's inclusion tolerance dwarfs the
				// similarity gaps one distance can hide). The buffer is
				// reused from the top: the boundary is read first, and
				// the re-query only appends.
				ms = ix.inner.QueryThresholdInto(iq, ms[k-1].Sim, ms[:0])
			}
		}
	}
	res := ix.resolve(ms, q)
	bp.ms = ms
	matchBufPool.Put(bp)
	if timed {
		ix.queryLatency.ObserveSince(start)
	}
	return res, nil
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
// interning them. Unknown elements can match nothing, but they still count
// toward the query's cardinalities (every measure's denominator), so they
// are folded into the query's Extra stats.
func (ix *Index) buildQuery(counts map[string]uint32) index.Query {
	// Map iteration order is irrelevant here: Extra accumulation is
	// commutative and the entries are sorted by element below. Map keys
	// are distinct and zero counts are skipped, so there is nothing for
	// multiset.New to merge, and its copy is spared.
	var q index.Query
	entries := make([]multiset.Entry, 0, len(counts))
	ix.mu.RLock()
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		if id, ok := ix.dict.Lookup(elem); ok {
			entries = append(entries, multiset.Entry{Elem: id, Count: c})
		} else {
			q.Extra.AccumulateUni(c)
		}
	}
	ix.mu.RUnlock()
	multiset.SortEntries(entries)
	q.Set = multiset.Multiset{Entries: entries}
	return q
}

// resolve translates the inner index's ID matches into q's public
// result — the one place entity names are attached and, for kNN,
// distances are computed — in the canonical public order, cut to q.K:
// the inner index breaks ties by entity ID, which is meaningless outside
// one process, and in distance space 1 − sim is order-reversing but not
// injective (adjacent similarities can round to one distance), so the
// distance ties it creates are re-broken by name here too. Matches whose
// entity was removed between the query and the lookup are dropped. A
// kNN list with fewer than q.K overlapping entities is padded under the
// same read-lock hold, so the resolved names and the pad come from one
// state of the name tables.
func (ix *Index) resolve(ms []index.Match, q Query) QueryResult {
	var res QueryResult
	ix.mu.RLock()
	if q.Kind == KindKNN {
		// Room for the pad: it can only run when len(ms) < q.K.
		res.Neighbors = make([]Neighbor, 0, max(len(ms), min(q.K, len(ix.byName))))
	} else {
		res.Matches = make([]Match, 0, len(ms))
	}
	for _, m := range ms {
		name, ok := ix.names[m.ID]
		if !ok {
			continue
		}
		if q.Kind == KindKNN {
			res.Neighbors = append(res.Neighbors, Neighbor{Entity: name, Distance: 1 - m.Sim})
		} else {
			res.Matches = append(res.Matches, Match{Entity: name, Similarity: m.Sim})
		}
	}
	overlap := len(res.Neighbors)
	if q.Kind == KindKNN && overlap < q.K {
		// Fewer than k entities overlap the query, so the list already
		// holds every overlapping one.
		res.Neighbors = ix.padKNNLocked(res.Neighbors, q.K, q.Entity)
	}
	ix.mu.RUnlock()
	cluster.SortMatches(res.Matches)
	cluster.SortNeighbors(res.Neighbors[:overlap])
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
	//lint:vsmart-allow canonicalorder the pad is a pure suffix: every prior entry overlaps the query (dist < 1 strictly) and resolve sorts those, the appended names are all at dist exactly 1 in ascending name order
	return out
}

// queryBuf is the pooled per-query state of the public read path: the
// internal-match staging buffer (the inner Into query fills it, resolve
// translates it into public results, and it never reaches a caller, so
// pooling is safe) plus a latency-sampling tick. Query latency is
// observed on one query in eight per buffer: the two clock reads and
// the histogram's shared-cacheline bump leave the hot path seven times
// out of eight, keeping the uncached read at its pre-instrumentation
// cost, while the sampled digest still converges on the steady-state
// distribution (sampling is unbiased — the tick has no correlation
// with query difficulty).
type queryBuf struct {
	ms   []index.Match
	tick uint8
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
