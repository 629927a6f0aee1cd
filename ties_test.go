package vsmartjoin

// The boundary-tie differential: top-k and kNN answers where the K-th
// similarity (or distance) is shared by several entities, held to the
// brute-force oracles of knn_diff_test.go.

import (
	"context"
	"fmt"
	"sort"
	"testing"
)

// tieEntities is the boundary-tie corpus around tieProbe: with the
// probe's own multiset, under ruzicka, three twins sit at similarity 1,
// four entities at 6/7 and two at 5/7, and six more at ≈2.5e-10 whose
// similarities differ while 1 − sim rounds to one distance — so K = 1
// and 2 cut the twins, K = 5 the 6/7 group and K = 10 the collapsed
// distances. Entities are added in descending name order, so the inner
// heap's tie-break (smallest ID) keeps the names the canonical order
// drops.
func tieEntities() map[string]map[string]uint32 {
	out := map[string]map[string]uint32{"hermit": {"only": 1}}
	for i := 0; i < 3; i++ {
		out[fmt.Sprintf("t1-%d", i)] = map[string]uint32{"a": 4, "b": 2, "c": 1}
	}
	for i := 0; i < 4; i++ {
		out[fmt.Sprintf("t2-%d", i)] = map[string]uint32{"a": 4, "b": 2}
	}
	for i := 0; i < 2; i++ {
		out[fmt.Sprintf("t3-%d", i)] = map[string]uint32{"a": 4, "b": 1}
	}
	for i := 0; i < 6; i++ {
		// Rising i lowers the similarity and the name's rank alike.
		name := fmt.Sprintf("t4-%d", 5-i)
		out[name] = map[string]uint32{"c": 1, "p-" + name: 4_000_000_000 + uint32(i)}
	}
	return out
}

var tieProbe = map[string]uint32{"a": 4, "b": 2, "c": 1}

// TestBoundaryTiesMatchOracle: top-k and kNN answers, by elements and
// by entity, with the cache off and on, at every K that cuts a tie
// group, equal the brute-force oracle's canonical order — and each
// uncached query costs the inner index exactly one pass
// (IndexStats.Queries), tied at the boundary or not.
func TestBoundaryTiesMatchOracle(t *testing.T) {
	const measure = "ruzicka"
	entities := tieEntities()
	var sims, dists []float64
	for i := 5; i >= 0; i-- {
		sim, err := Similarity(measure, tieProbe, entities[fmt.Sprintf("t4-%d", i)])
		if err != nil {
			t.Fatal(err)
		}
		sims, dists = append(sims, sim), append(dists, 1-sim)
	}
	for i := 1; i < len(sims); i++ {
		if !(sims[i] < sims[i-1]) || dists[i] != dists[0] {
			t.Fatalf("premise broken: sims %v must strictly fall while distances %v collapse", sims, dists)
		}
	}
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	without := func(self string) map[string]map[string]uint32 {
		out := make(map[string]map[string]uint32, len(entities))
		for name, counts := range entities {
			if name != self {
				out[name] = counts
			}
		}
		return out
	}

	for _, cacheSize := range []int{-1, 0} {
		ix, err := NewIndex(IndexOptions{Measure: measure, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := ix.Add(name, entities[name]); err != nil {
				t.Fatal(err)
			}
		}
		// ask runs q and checks that it cost one inner pass unless the
		// cache answered it.
		ask := func(tag string, q Query) QueryResult {
			t.Helper()
			before := ix.Stats()
			res, err := ix.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			after := ix.Stats()
			passes, misses := after.Queries-before.Queries, after.CacheMisses-before.CacheMisses
			if cacheSize < 0 {
				misses = 1
			}
			if hits := after.CacheHits - before.CacheHits; hits+misses != 1 || passes != misses {
				t.Fatalf("%s: %d inner passes for %d cache misses and %d hits, want one pass per miss", tag, passes, misses, hits)
			}
			return res
		}
		for round := 0; round < 3; round++ { // later rounds hit the cache where there is one
			for _, k := range []int{1, 2, 5, 10} {
				tag := fmt.Sprintf("cache=%d round %d k=%d", cacheSize, round, k)
				allMatches := oracleMatches(t, entities, measure, tieProbe)
				res := ask(tag+" topk", Query{Elements: tieProbe, Kind: KindTopK, K: k})
				mustMatchMatches(t, tag+" topk", res.Matches, allMatches[:k])
				res = ask(tag+" knn", Query{Elements: tieProbe, Kind: KindKNN, K: k})
				mustMatchKNN(t, tag+" knn", res.Neighbors, oracleKNN(t, entities, measure, tieProbe, "", k))

				selfMatches := oracleMatches(t, without("t1-1"), measure, tieProbe)
				res = ask(tag+" topk entity", Query{Entity: "t1-1", Kind: KindTopK, K: k})
				mustMatchMatches(t, tag+" topk entity", res.Matches, selfMatches[:k])
				res = ask(tag+" knn entity", Query{Entity: "t1-1", Kind: KindKNN, K: k})
				mustMatchKNN(t, tag+" knn entity", res.Neighbors, oracleKNN(t, entities, measure, tieProbe, "t1-1", k))
			}
		}
		if cacheSize >= 0 && ix.Stats().CacheHits == 0 {
			t.Fatal("the cache-on index never answered from its cache")
		}
	}
}
