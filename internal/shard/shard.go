// Package shard hash-partitions entities across internal/index.Index
// partitions. A serving index is one partition (vsmartjoin.Index holds
// one index.Index); what remains here is ShardOf, the mixed hash the
// cluster router places entity names with, and Set: N partitions behind
// the index query surface, which exercises index.QueryAcross — the one
// query body — over more than one partition and gives the benchmark
// ladder its shard rung.
//
// A query is one pass on the caller's goroutine (index.QueryAcross): it
// walks the partitions in order with one pooled pass state, under the
// Set's read lock; a mutation takes its write lock, since an index.Index
// has no lock of its own. Partitioning by entity keeps every query exact:
// each partition holds the complete multisets of its entities, so the
// measure-derived pruning bounds apply per partition exactly as they do
// globally; a threshold answer is the union of the partitions' verified
// matches, and a top-k query carries one heap — one rising floor —
// through all of them, so the heap after the last partition is the
// single-index answer. The partitions share the caller's element IDs, so
// the query's probe order is built once for all of them.
package shard

import (
	"sync"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/planner"
	"vsmartjoin/internal/similarity"
)

// Set is a fixed-width collection of hash-partitioned index shards. The
// zero value is not usable; construct with New. Its query methods mirror
// index.Index's.
type Set struct {
	shards []*index.Index // fixed at New

	mu sync.RWMutex // held for writing by Add and Remove, for reading by every read
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

// ShardOf is the one routing function: the shard index owning entity id
// in an n-shard set, and the mixing function cluster.PartitionOf places
// entity names with — carved cluster dirs depend on it staying exactly
// as it is. A width below 2 routes everything to shard 0, matching
// New's "n < 1 is treated as 1": without the guard a zero width panics
// on the mod (integer divide by zero) and a negative width wraps through
// uint64(n) to an arbitrary huge modulus. The ID is mixed first
// (multiset.Mix64) so that sequential IDs spread instead of striping.
func ShardOf(id multiset.ID, n int) int {
	if n < 2 {
		return 0
	}
	return int(multiset.Mix64(uint64(id)) % uint64(n))
}

func (s *Set) shardOf(id multiset.ID) *index.Index {
	return s.shards[ShardOf(id, len(s.shards))]
}

// Add upserts an entity into its owning shard. Ownership follows the
// ID, so an upsert always lands on the shard holding the old version.
func (s *Set) Add(m multiset.Multiset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardOf(m.ID).Add(m)
}

// Remove deletes the entity with the given ID, reporting whether it was
// present.
func (s *Set) Remove(id multiset.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardOf(id).Remove(id)
}

// Len reports the number of live entities across all shards.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// QueryThresholdInto appends to buf, under the canonical ordering, every
// entity of any shard at similarity t or above: exactly the single-index
// answer, since the shards partition the entities.
func (s *Set) QueryThresholdInto(q index.Query, t float64, buf []index.Match) []index.Match {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return index.QueryAcross(s.shards, q, t, -1, buf)
}

// QueryTopKInto appends the global top-k to buf: exactly the
// single-index answer, ID tie-breaks included.
func (s *Set) QueryTopKInto(q index.Query, k int, buf []index.Match) []index.Match {
	k, base := max(k, 0), len(buf)
	s.mu.RLock()
	buf = index.QueryAcross(s.shards, q, 0, k, buf)
	s.mu.RUnlock()
	if len(buf)-base > k { // the boundary ties follow the k best
		buf = buf[:base+k]
	}
	return buf
}

// QueryKNNInto is QueryTopKInto, kept because benchmark/ladder.go names
// it (its shard.knn_ns rung); see index.Neighbor.
func (s *Set) QueryKNNInto(q index.Query, k int, buf []index.Neighbor) []index.Neighbor {
	return s.QueryTopKInto(q, k, buf)
}

// SetPlanner does nothing; it remains only because benchmark/ladder.go
// calls it.
func (s *Set) SetPlanner(planner.Heuristic) {}
