package index

// Micro-benchmarks for the query hot path: no name tables, no JSON, no
// sharding — just posting-list probes, pruning, and verification
// against a live Index. The steady-state path is expected to stay at
// 0 allocs/op (the Into variants append into caller-owned buffers and
// all per-query scratch state is pooled):
//
//	go test -run '^$' -bench 'BenchmarkQueryTopK|BenchmarkQueryThreshold' -benchmem ./internal/index
//
// Beside the 10k-entity corpus, both benchmarks run the partition
// shapes a second candidate-generation path would have to win on
// (benchRegimes); their numbers are the baseline such a path must beat.

import (
	"fmt"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// benchSets synthesizes n entities with quadratically skewed element
// popularity (low element IDs shared by many entities), the same shape
// the public bench harness uses: 12 elements each, counts 1..5.
func benchSets(n int) []multiset.Multiset { return stopWordSets(n, 0) }

// stopWordSets is benchSets with one extra element carried by every
// entity at the given count (none at 0: multiset.New drops it), so its
// posting list is the whole partition. Its ID is above the alphabet: at
// count 1 it sorts last in every query's probe order, at a count above
// 5 first.
func stopWordSets(n int, count uint32) []multiset.Multiset {
	out := make([]multiset.Multiset, n)
	for i := range out {
		entries := make([]multiset.Entry, 0, 13)
		for j := 0; j < 12; j++ {
			elem := multiset.Elem((i*31 + j*j*7) % (n/2 + 64))
			entries = append(entries, multiset.Entry{Elem: elem, Count: uint32(j%5 + 1)})
		}
		entries = append(entries, multiset.Entry{Elem: multiset.Elem(n + 64), Count: count})
		out[i] = multiset.New(multiset.ID(i+1), entries)
	}
	return out
}

// benchRegimes are the partition shapes measured against a straight
// scan and a MinHash-seeded sweep before those were deleted: a
// partition of 64 entities, and 2000 entities sharing a stop word that
// is the lightest element of every query (probed last, usually cut off
// by the residual bound) or the heaviest (probed first: the probe
// visits the whole partition).
var benchRegimes = []struct {
	name      string
	n         int
	stopCount uint32
}{
	{"small-64", 64, 0},
	{"stopword-light", 2000, 1},
	{"stopword-heavy", 2000, 6},
}

// benchQueries runs one sub-benchmark per parameter over the 10k-entity
// corpus and one per regime at regimeParam, cycling through the
// corpus's own entities as queries into a reused buffer, so allocs/op
// is the hot path's own allocation count.
func benchQueries[P any](b *testing.B, label string, params []P, regimeParam P, query func(*Index, Query, P, []Match) []Match) {
	build := func(sets []multiset.Multiset) *Index {
		ix := New(similarity.Ruzicka{})
		for _, m := range sets {
			ix.Add(m)
		}
		return ix
	}
	run := func(name string, ix *Index, sets []multiset.Multiset, p P) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []Match
			for i := 0; i < b.N; i++ {
				buf = query(ix, QueryOf(sets[i%len(sets)]), p, buf[:0])
			}
		})
	}
	sets := benchSets(10000)
	ix := build(sets)
	for _, p := range params {
		run(fmt.Sprintf("%s=%v", label, p), ix, sets, p)
	}
	for _, r := range benchRegimes {
		sets := stopWordSets(r.n, r.stopCount)
		run(r.name, build(sets), sets, regimeParam)
	}
}

// BenchmarkQueryThreshold measures the full probe→prune→verify pipeline
// for threshold queries.
func BenchmarkQueryThreshold(b *testing.B) {
	benchQueries(b, "t", []float64{0.1, 0.5, 0.9}, 0.5, (*Index).QueryThresholdInto)
}

// BenchmarkQueryTopK measures ranked queries with the rising-floor
// cutoff.
func BenchmarkQueryTopK(b *testing.B) {
	benchQueries(b, "k", []int{1, 10, 100}, 10, (*Index).QueryTopKInto)
}
