// Package ppjoin holds the sequential exact similarity join the tests of
// the MapReduce algorithms, the VCL baseline and the online index compare
// against: the naive quadratic join, for any supported measure.
package ppjoin

import (
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Naive computes the exact all-pair join by brute force — the O(n²) ground
// truth used to validate every other algorithm.
func Naive(sets []multiset.Multiset, m similarity.Measure, t float64) []records.Pair {
	var out []records.Pair
	unis := make([]similarity.UniStats, len(sets))
	for i, s := range sets {
		unis[i] = similarity.UniOf(s)
	}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			conj := similarity.ConjOf(sets[i], sets[j])
			if conj.Common == 0 {
				// Non-overlapping pairs are never emitted by inverted-index
				// algorithms; exclude them even when Sim ≥ t is impossible
				// anyway for the supported measures.
				continue
			}
			sim := m.Sim(unis[i], unis[j], conj)
			if sim+1e-12 >= t {
				out = append(out, records.Pair{A: sets[i].ID, B: sets[j].ID, Sim: sim}.Canonical())
			}
		}
	}
	records.SortPairs(out)
	return out
}
