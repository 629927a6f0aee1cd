// Package shard partitions the online index horizontally, in memory: a
// Set is N hash-partitioned internal/index.Index shards behind the same
// API as a single index, with entities routed to shards by a mixed hash
// of their ID. The partition is a layout for the query walk and nothing
// else. Each shard has its own lock, but vsmartjoin.Index serializes
// every write on its own lock before it reaches a shard, and it persists
// one log for the whole set, so the shard count is not part of any
// on-disk format: a reopened index may re-partition freely.
//
// A query is one pass on the caller's goroutine (index.QueryAcross): it
// walks the shards in order, each under its own read lock, with one
// pooled pass state. Partitioning by entity keeps every query exact:
// each shard holds the complete multisets of its entities, so the
// measure-derived pruning bounds apply per shard exactly as they do
// globally; a threshold answer is the union of the shards' verified
// matches, and a top-k query carries one heap — one rising floor —
// through all of them, so every shard after the first is pruned against
// similarities already found and the heap after the last shard is the
// single-index answer. The element dictionary is intentionally NOT per
// shard: callers intern strings once (vsmartjoin.Index holds the shared
// multiset.Dict), so every shard sees the same element IDs and the
// query's probe order is built once for all of them.
//
// Nothing here starts a goroutine. Serving load keeps the cores busy
// with other queries, and at this index's per-shard query cost (a few
// microseconds) a hand-off to a worker costs more than the shard's
// share of the work; README "Shard-count guidance" has the measurements
// and the bar for bringing a parallel walk back.
package shard

import (
	"sync/atomic"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/planner"
	"vsmartjoin/internal/similarity"
)

// Set is a fixed-width collection of hash-partitioned index shards. The
// zero value is not usable; construct with New. Methods mirror
// index.Index so the two are interchangeable behind vsmartjoin.Index.
type Set struct {
	shards []*index.Index
	// queries counts queries at the set level: the shards' own counters
	// only see queries put to them directly.
	queries atomic.Int64
}

// New returns an empty set of n shards (n < 1 is treated as 1)
// verifying with the given measure.
func New(m similarity.Measure, n int) *Set {
	if n < 1 {
		n = 1
	}
	s := &Set{shards: make([]*index.Index, n)}
	for i := range s.shards {
		s.shards[i] = index.New(m)
	}
	return s
}

// Shards reports the shard width.
func (s *Set) Shards() int { return len(s.shards) }

// Measure reports the measure the shards verify with.
func (s *Set) Measure() similarity.Measure { return s.shards[0].Measure() }

// shardHash mixes an entity ID (splitmix64 finalizer) so that
// sequentially assigned IDs — the common case, vsmartjoin.Index hands
// them out from a counter — spread evenly instead of striping.
func shardHash(id multiset.ID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf is the one routing function: the shard index owning entity id
// in an n-shard set, which vsmartjoin.Index uses to group a write batch
// per shard and to route recovered entities to their shard's bulk load.
// A width below 2 routes everything to shard 0, matching New's "n < 1
// is treated as 1": without the guard a zero width panics on the mod
// (integer divide by zero) and a negative width wraps through uint64(n)
// to an arbitrary huge modulus.
func ShardOf(id multiset.ID, n int) int {
	if n < 2 {
		return 0
	}
	return int(shardHash(id) % uint64(n))
}

func (s *Set) shardOf(id multiset.ID) *index.Index {
	return s.shards[ShardOf(id, len(s.shards))]
}

// At returns shard i, for callers that manage per-shard concerns the
// set does not own — batched applies and bulk loading (vsmartjoin.Index).
func (s *Set) At(i int) *index.Index { return s.shards[i] }

// Add upserts an entity into its owning shard. Ownership follows the
// ID, so an upsert always lands on the shard holding the old version.
func (s *Set) Add(m multiset.Multiset) { s.shardOf(m.ID).Add(m) }

// Remove deletes the entity with the given ID, reporting whether it was
// present.
func (s *Set) Remove(id multiset.ID) bool { return s.shardOf(id).Remove(id) }

// View returns the entity's current multiset as stored (see
// index.View), or an empty multiset if the ID is not indexed anywhere.
func (s *Set) View(id multiset.ID) multiset.Multiset { return s.shardOf(id).View(id) }

// Snapshot is View, copied.
func (s *Set) Snapshot(id multiset.ID) multiset.Multiset { return s.shardOf(id).Snapshot(id) }

// Len reports the number of live entities across all shards.
func (s *Set) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Range calls fn for every live entity across all shards in ascending
// ID order, stopping early if fn returns false. Like index.Range, the
// multisets are immutable entries the callback must not mutate, and the
// iteration is a point-in-time capture, not a frozen global view under
// concurrent mutation — callers wanting an atomic snapshot (the WAL
// snapshot writer, its one non-test caller) hold their own write-side
// lock.
func (s *Set) Range(fn func(m multiset.Multiset) bool) {
	if len(s.shards) == 1 {
		s.shards[0].Range(fn)
		return
	}
	// Each shard ranges in ascending ID order and IDs are unique across
	// shards (routing is a function of the ID), so a k-way head merge
	// restores the global order.
	per := make([][]multiset.Multiset, len(s.shards))
	for i, sh := range s.shards {
		sh.Range(func(m multiset.Multiset) bool {
			per[i] = append(per[i], m)
			return true
		})
	}
	heads := make([]int, len(per))
	for {
		best := -1
		for i := range per {
			if heads[i] >= len(per[i]) {
				continue
			}
			if best < 0 || per[i][heads[i]].ID < per[best][heads[best]].ID {
				best = i
			}
		}
		if best < 0 {
			return
		}
		if !fn(per[best][heads[best]]) {
			return
		}
		heads[best]++
	}
}

// QueryThresholdInto appends to buf, under the canonical ordering, every
// entity of any shard at similarity t or above: exactly the single-index
// answer, since the shards partition the entities.
func (s *Set) QueryThresholdInto(q index.Query, t float64, buf []index.Match) []index.Match {
	s.queries.Add(1)
	return index.QueryAcross(s.shards, q, t, -1, buf)
}

// QueryTopKInto appends the global top-k to buf: exactly the
// single-index answer, ID tie-breaks included.
func (s *Set) QueryTopKInto(q index.Query, k int, buf []index.Match) []index.Match {
	s.queries.Add(1)
	return index.QueryAcross(s.shards, q, 0, max(k, 0), buf)
}

// QueryKNNInto is QueryTopKInto, kept because benchmark/ladder.go names
// it (its shard.knn_ns rung); see index.Neighbor.
func (s *Set) QueryKNNInto(q index.Query, k int, buf []index.Neighbor) []index.Neighbor {
	return s.QueryTopKInto(q, k, buf)
}

// SetPlanner does nothing; it remains only because benchmark/ladder.go
// calls it.
func (s *Set) SetPlanner(planner.Heuristic) {}

// Stats sums the per-shard counters. Queries is counted at the set
// level (one per query); everything else — sizes, probes, candidates,
// verifications — is genuine total work across shards, so the pruning
// funnel stays comparable with a single index.
func (s *Set) Stats() index.Stats {
	var out index.Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Entities += st.Entities
		out.Elements += st.Elements
		out.Postings += st.Postings
		out.Adds += st.Adds
		out.Removes += st.Removes
		out.Compactions += st.Compactions
		out.Probes += st.Probes
		out.Candidates += st.Candidates
		out.LengthPruned += st.LengthPruned
		out.Verified += st.Verified
		out.Results += st.Results
	}
	out.Queries = s.queries.Load()
	return out
}
