package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/ppjoin"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// TestLengthFilterAblation holds Similarity1's length filter to its
// contract over every measure, algorithm and threshold, in memory and in
// the chunked mode: the filtered join returns exactly the pairs and
// similarities of the paper's unpruned Similarity1 and of the oracle, and
// it only ever drops tuples — every tuple of the unpruned run is either
// emitted or counted as length-pruned. Lookup has no chunked leg: its
// side table holds every entity and outweighs any one posting list, so a
// budget that fits the table never overflows a list.
func TestLengthFilterAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sets := randomMultisets(rng, 120, 8, 9, 4) // small alphabet: long lists of mixed-size entities
	input := records.BuildInput("in", sets, 4)
	clusters := []struct {
		name    string
		cl      mr.ClusterConfig
		chunked bool
	}{
		{"in-memory", mr.NewCluster(3, 1<<20), false},
		{"chunked", mr.NewCluster(3, 400), true},
	}
	for _, m := range similarity.All() {
		for _, thr := range []float64{0, 0.3, 0.5, 0.9} {
			want := ppjoin.Naive(sets, m, thr)
			for _, alg := range allAlgorithms() {
				for _, c := range clusters {
					if c.chunked && alg == Lookup {
						continue
					}
					name := fmt.Sprintf("%s/t=%v/%s/%s", m.Name(), thr, alg, c.name)
					cfg := Config{Measure: m, Threshold: thr, Algorithm: alg, ShardC: 5}
					on, err := Join(c.cl, input, cfg)
					if err != nil {
						t.Fatalf("%s filtered: %v", name, err)
					}
					cfg.NoLengthFilter = true
					off, err := Join(c.cl, input, cfg)
					if err != nil {
						t.Fatalf("%s unfiltered: %v", name, err)
					}
					if chunked := on.Stats.Counter(CounterChunkedLists) > 0; chunked != c.chunked {
						t.Fatalf("%s: chunked=%v, want %v", name, chunked, c.chunked)
					}
					if !records.SamePairs(on.Pairs, off.Pairs, 0) {
						t.Fatalf("%s: filtered and unfiltered pairs differ (%d vs %d pairs)", name, len(on.Pairs), len(off.Pairs))
					}
					if !records.SamePairs(on.Pairs, want, 0) {
						t.Fatalf("%s: pairs differ from the oracle's (%d vs %d pairs)", name, len(on.Pairs), len(want))
					}
					candOn, pruned := on.Stats.Counter(CounterCandidateTuples), on.Stats.Counter(CounterLengthPruned)
					candOff := off.Stats.Counter(CounterCandidateTuples)
					if off.Stats.Counter(CounterLengthPruned) != 0 {
						t.Fatalf("%s: the unpruned run pruned %d tuples", name, off.Stats.Counter(CounterLengthPruned))
					}
					if candOn+pruned != candOff {
						t.Fatalf("%s: %d emitted + %d pruned tuples, want the unpruned run's %d", name, candOn, pruned, candOff)
					}
					if _, isRuzicka := m.(similarity.Ruzicka); isRuzicka && thr == 0.5 && pruned == 0 {
						t.Fatalf("%s: nothing pruned on a corpus of mixed sizes", name)
					}
				}
			}
		}
	}
}

// TestLengthFilterKeepsBoundEqualToThreshold pins the filter's edge: a
// pair whose size bound is exactly t can still reach t, and here does.
// Under Ruzicka at t = 0.5, {x} against {x, y} and {x, y} against
// {x, y, z, w} each have bound 1/2 and similarity exactly 1/2; only
// {x} against {x, y, z, w}, bound 1/4, is pruned.
func TestLengthFilterKeepsBoundEqualToThreshold(t *testing.T) {
	sets := []multisetValue{
		{1, map[uint64]uint32{1: 1}},
		{2, map[uint64]uint32{1: 1, 2: 1}},
		{3, map[uint64]uint32{1: 1, 2: 1, 3: 1, 4: 1}},
	}
	input := records.BuildInput("in", buildAll(sets), 2)
	for _, alg := range allAlgorithms() {
		res, err := Join(testCluster(2), input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		want := []records.Pair{{A: 1, B: 2, Sim: 0.5}, {A: 2, B: 3, Sim: 0.5}}
		if !records.SamePairs(res.Pairs, want, 0) {
			t.Fatalf("%s: got %v, want %v", alg, res.Pairs, want)
		}
		if got := res.Stats.Counter(CounterLengthPruned); got != 1 {
			t.Fatalf("%s: %d tuples length-pruned, want 1 (the pair of sizes 1 and 4)", alg, got)
		}
	}
}
