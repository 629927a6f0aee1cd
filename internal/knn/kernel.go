package knn

import (
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// This file is the quadratic kNN kernel the batch AllKNN job refines
// with: exact k-nearest lists under the distance 1 − Sim, computed by
// brute force within one partition. Unlike a threshold join, kNN has no
// similarity cut-off to prune with — an entity's k-th neighbor may share
// nothing with it — so non-overlapping pairs are NOT skipped: they sit
// at distance exactly 1 and legitimately fill a list when fewer than k
// entities overlap.

// Neighbor is one entry of a k-nearest list: an entity at distance
// 1 − Sim from the query. Canonical order is distance ascending, ID
// ascending on ties.
type Neighbor struct {
	ID   multiset.ID
	Dist float64
}

// worse reports whether a ranks below b in the canonical order:
// greater distance, or greater ID at equal distances.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// insertNeighbor folds n into a bounded ascending-sorted list of at
// most k entries, dropping the worst overflow. O(k) per insert — the
// lists here are small (k per entity) and the kernel is quadratic in
// the partition size anyway.
func insertNeighbor(list []Neighbor, n Neighbor, k int) []Neighbor {
	if len(list) == k && !worse(list[k-1], n) {
		return list
	}
	i := len(list)
	if len(list) < k {
		list = append(list, n)
	}
	for ; i > 0 && worse(list[i-1], n); i-- {
		if i < len(list) {
			list[i] = list[i-1]
		}
	}
	list[i] = n
	return list
}

// KNNBrute computes every set's exact k nearest neighbors among the
// other sets: for each set, the k others with the smallest 1 − Sim
// distance, ties broken by ascending ID, each list sorted in that
// canonical order. Self-pairs are excluded. Lists are shorter than k
// only when fewer than k other sets exist.
func KNNBrute(sets []multiset.Multiset, m similarity.Measure, k int) [][]Neighbor {
	out := make([][]Neighbor, len(sets))
	if k <= 0 {
		return out
	}
	unis := make([]similarity.UniStats, len(sets))
	for i, s := range sets {
		unis[i] = similarity.UniOf(s)
	}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			sim := m.Sim(unis[i], unis[j], similarity.ConjOf(sets[i], sets[j]))
			d := 1 - sim
			out[i] = insertNeighbor(out[i], Neighbor{ID: sets[j].ID, Dist: d}, k)
			out[j] = insertNeighbor(out[j], Neighbor{ID: sets[i].ID, Dist: d}, k)
		}
	}
	return out
}

// KNNAgainst computes the k nearest neighbors of one external query
// multiset among members, in the canonical order — the probe-side
// kernel of the batch job's refine phase. A member sharing the query's
// ID is skipped.
func KNNAgainst(q multiset.Multiset, members []multiset.Multiset, m similarity.Measure, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	qUni := similarity.UniOf(q)
	var out []Neighbor
	for _, mem := range members {
		if mem.ID == q.ID {
			continue
		}
		sim := m.Sim(qUni, similarity.UniOf(mem), similarity.ConjOf(q, mem))
		out = insertNeighbor(out, Neighbor{ID: mem.ID, Dist: 1 - sim}, k)
	}
	return out
}
