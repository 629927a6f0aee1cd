package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/ppjoin"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// TestJoinFullyDeterministic asserts byte-level and cost-level determinism
// across repeated runs — the property that makes the simulated experiments
// reproducible without median-of-5 measurements.
func TestJoinFullyDeterministic(t *testing.T) {
	sets := randomMultisets(rand.New(rand.NewSource(61)), 60, 25, 8, 3)
	input := records.BuildInput("in", sets, 6)
	var firstPairs []records.Pair
	var firstSeconds float64
	for run := 0; run < 3; run++ {
		res, err := Join(testCluster(4), input, Config{
			Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Sharding,
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			firstPairs = res.Pairs
			firstSeconds = res.Stats.TotalSeconds
			continue
		}
		if !records.SamePairs(res.Pairs, firstPairs, 0) {
			t.Fatalf("run %d: pairs differ", run)
		}
		if res.Stats.TotalSeconds != firstSeconds {
			t.Fatalf("run %d: simulated time differs: %v vs %v", run, res.Stats.TotalSeconds, firstSeconds)
		}
	}
}

// TestLargeMultiplicities exercises the varint encodings and the partial
// sums with counts near the uint32 limit.
func TestLargeMultiplicities(t *testing.T) {
	big := uint32(1<<31 - 7)
	sets := []multiset.Multiset{
		buildMS(1, map[uint64]uint32{1: big, 2: 3}),
		buildMS(2, map[uint64]uint32{1: big - 1, 2: 3}),
		buildMS(3, map[uint64]uint32{9: 1}),
	}
	input := records.BuildInput("in", sets, 2)
	res, err := Join(testCluster(2), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.9, Algorithm: Lookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ppjoin.Naive(sets, similarity.Ruzicka{}, 0.9)
	if !records.SamePairs(res.Pairs, want, 1e-12) {
		t.Fatalf("huge counts: got %v want %v", res.Pairs, want)
	}
}

// TestQuickRandomJoinsMatchNaive is a property test: for random small
// corpora and thresholds, the distributed join equals the oracle.
func TestQuickRandomJoinsMatchNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12}
	f := func(seed int64, thrRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		thr := 0.2 + float64(thrRaw%70)/100.0
		sets := randomMultisets(rng, 25+rng.Intn(15), 12+rng.Intn(20), 6, 3)
		input := records.BuildInput("in", sets, 3)
		want := ppjoin.Naive(sets, similarity.Ruzicka{}, thr)
		res, err := Join(testCluster(3), input, Config{
			Measure: similarity.Ruzicka{}, Threshold: thr,
			Algorithm: Algorithm(uint64(seed) % 3),
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return records.SamePairs(res.Pairs, want, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSingletonAndEmptyCorpus covers degenerate corpora.
func TestSingletonAndEmptyCorpus(t *testing.T) {
	one := records.BuildInput("one", []multiset.Multiset{buildMS(1, map[uint64]uint32{5: 2})}, 2)
	res, err := Join(testCluster(2), one, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.1, Algorithm: OnlineAggregation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("singleton corpus produced pairs: %v", res.Pairs)
	}
	empty := records.BuildInput("none", nil, 2)
	res, err = Join(testCluster(2), empty, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.1, Algorithm: Sharding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("empty corpus produced pairs: %v", res.Pairs)
	}
}
