package core

import (
	"testing"

	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// TestVectorJoin exercises the vector semantics of the framework: sparse
// non-negative vectors joined under vector cosine.
func TestVectorJoin(t *testing.T) {
	// Three "vectors": v2 = 2·v1 (cosine 1), v3 orthogonal-ish.
	sets := []multisetValue{
		{1, map[uint64]uint32{1: 1, 2: 2, 3: 3}},
		{2, map[uint64]uint32{1: 2, 2: 4, 3: 6}},
		{3, map[uint64]uint32{7: 5, 8: 5}},
		{4, map[uint64]uint32{1: 3, 7: 1}},
	}
	input := records.BuildInput("in", buildAll(sets), 2)
	res, err := Join(testCluster(2), input, Config{
		Measure: similarity.VectorCosine{}, Threshold: 0.99, Algorithm: OnlineAggregation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].A != 1 || res.Pairs[0].B != 2 {
		t.Fatalf("parallel vectors not found: %v", res.Pairs)
	}
	if res.Pairs[0].Sim < 0.999999 {
		t.Fatalf("cosine of parallel vectors: %v", res.Pairs[0].Sim)
	}
}

// TestSetJoinJaccardBoundaryThresholds exercises t = 1 (exact duplicates
// only) and very low t.
func TestSetJoinJaccardBoundaryThresholds(t *testing.T) {
	sets := []multisetValue{
		{1, map[uint64]uint32{1: 1, 2: 1}},
		{2, map[uint64]uint32{1: 1, 2: 1}},
		{3, map[uint64]uint32{1: 1, 3: 1}},
	}
	input := records.BuildInput("in", buildAll(sets), 2)
	exact, err := Join(testCluster(2), input, Config{
		Measure: similarity.Jaccard{}, Threshold: 1, Algorithm: Sharding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Pairs) != 1 || exact.Pairs[0].Sim != 1 {
		t.Fatalf("t=1: %v", exact.Pairs)
	}
	all, err := Join(testCluster(2), input, Config{
		Measure: similarity.Jaccard{}, Threshold: 0, Algorithm: Sharding,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every overlapping pair qualifies at t=0: (1,2), (1,3), (2,3).
	if len(all.Pairs) != 3 {
		t.Fatalf("t=0: %v", all.Pairs)
	}
}

type multisetValue struct {
	id     uint64
	counts map[uint64]uint32
}

func buildAll(vals []multisetValue) (out []msAlias) {
	for _, v := range vals {
		out = append(out, buildMS(v.id, v.counts))
	}
	return out
}
