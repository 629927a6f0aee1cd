package index

// Micro-benchmarks for the query hot path, at the layer the pprof pass
// optimizes: no name tables, no JSON, no sharding — just posting-list
// probes, pruning, and verification against a live Index. Run with
// -benchmem: the steady-state path is expected to stay at ~0 allocs/op
// (the Into variants append into caller-owned buffers and all per-query
// scratch state is pooled). `make bench-json` records the numbers into
// BENCH_*.json; see the Makefile for the profile-collecting variants.

import (
	"fmt"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// benchSets synthesizes n entities with quadratically skewed element
// popularity (low element IDs shared by many entities), the same shape
// the public bench harness uses: 12 elements each, counts 1..5.
func benchSets(n int) []multiset.Multiset {
	out := make([]multiset.Multiset, n)
	for i := range out {
		entries := make([]multiset.Entry, 0, 12)
		for j := 0; j < 12; j++ {
			elem := multiset.Elem((i*31 + j*j*7) % (n/2 + 64))
			entries = append(entries, multiset.Entry{Elem: elem, Count: uint32(j%5 + 1)})
		}
		out[i] = multiset.New(multiset.ID(i+1), entries)
	}
	return out
}

func benchIndex(b *testing.B, n int) (*Index, []multiset.Multiset) {
	b.Helper()
	sets := benchSets(n)
	ix := New(similarity.Ruzicka{})
	for _, m := range sets {
		ix.Add(m)
	}
	return ix, sets
}

// BenchmarkQueryThreshold measures the full probe→prune→verify pipeline
// for threshold queries. The returned matches land in a reused buffer,
// so allocs/op is the hot path's own allocation count.
func BenchmarkQueryThreshold(b *testing.B) {
	ix, sets := benchIndex(b, 10000)
	for _, t := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("t=%v", t), func(b *testing.B) {
			b.ReportAllocs()
			var buf []Match
			for i := 0; i < b.N; i++ {
				buf = ix.QueryThresholdInto(QueryOf(sets[i%len(sets)]), t, buf[:0])
			}
		})
	}
}

// BenchmarkQueryTopK measures ranked queries with the rising-floor
// cutoff, results into a reused buffer.
func BenchmarkQueryTopK(b *testing.B) {
	ix, sets := benchIndex(b, 10000)
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var buf []Match
			for i := 0; i < b.N; i++ {
				buf = ix.QueryTopKInto(QueryOf(sets[i%len(sets)]), k, buf[:0])
			}
		})
	}
}
