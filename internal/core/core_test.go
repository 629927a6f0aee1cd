package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/ppjoin"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

func testCluster(machines int) mr.ClusterConfig {
	return mr.NewCluster(machines, 1<<20)
}

func randomMultisets(rng *rand.Rand, n, alphabet, maxLen, maxCount int) []multiset.Multiset {
	sets := make([]multiset.Multiset, 0, n)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(maxLen)
		entries := make([]multiset.Entry, l)
		for j := range entries {
			entries[j] = multiset.Entry{
				Elem:  multiset.Elem(rng.Intn(alphabet)),
				Count: uint32(1 + rng.Intn(maxCount)),
			}
		}
		sets = append(sets, multiset.New(multiset.ID(i+1), entries))
	}
	return sets
}

func allAlgorithms() []Algorithm { return []Algorithm{OnlineAggregation, Lookup, Sharding} }

func TestAllAlgorithmsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	measures := []similarity.Measure{
		similarity.Ruzicka{}, similarity.Jaccard{}, similarity.MultisetDice{},
		similarity.MultisetCosine{}, similarity.VectorCosine{},
	}
	for trial := 0; trial < 4; trial++ {
		sets := randomMultisets(rng, 50, 40, 10, 4)
		input := records.BuildInput("in", sets, 7)
		for _, m := range measures {
			for _, thr := range []float64{0.3, 0.6, 0.85} {
				want := ppjoin.Naive(sets, m, thr)
				for _, alg := range allAlgorithms() {
					res, err := Join(testCluster(5), input, Config{
						Measure: m, Threshold: thr, Algorithm: alg, ShardC: 5,
					})
					if err != nil {
						t.Fatalf("trial %d %s %s t=%v: %v", trial, alg, m.Name(), thr, err)
					}
					if !records.SamePairs(res.Pairs, want, 1e-9) {
						t.Fatalf("trial %d %s %s t=%v: got %d pairs want %d\ngot: %v\nwant: %v",
							trial, alg, m.Name(), thr, len(res.Pairs), len(want), res.Pairs, want)
					}
				}
			}
		}
	}
}

func TestAlgorithmsAgreeOnPairCounts(t *testing.T) {
	// The Fig 4 litmus: all algorithms produce the same number of similar
	// pairs for each threshold.
	rng := rand.New(rand.NewSource(23))
	sets := randomMultisets(rng, 80, 50, 12, 3)
	input := records.BuildInput("in", sets, 9)
	for _, thr := range []float64{0.1, 0.5, 0.9} {
		counts := map[Algorithm]int{}
		for _, alg := range allAlgorithms() {
			res, err := Join(testCluster(4), input, Config{
				Measure: similarity.Ruzicka{}, Threshold: thr, Algorithm: alg,
			})
			if err != nil {
				t.Fatal(err)
			}
			counts[alg] = len(res.Pairs)
		}
		if counts[OnlineAggregation] != counts[Lookup] || counts[Lookup] != counts[Sharding] {
			t.Fatalf("t=%v: pair counts differ: %v", thr, counts)
		}
	}
}

func TestOnlineAggregationRequiresSecondaryKeys(t *testing.T) {
	sets := randomMultisets(rand.New(rand.NewSource(1)), 10, 10, 5, 2)
	input := records.BuildInput("in", sets, 2)
	_, err := Join(testCluster(2).Hadoop(), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: OnlineAggregation,
	})
	if !errors.Is(err, mr.ErrSecondaryKeys) {
		t.Fatalf("want ErrSecondaryKeys, got %v", err)
	}
	// Lookup and Sharding run fine on Hadoop-compatible clusters.
	for _, alg := range []Algorithm{Lookup, Sharding} {
		if _, err := Join(testCluster(2).Hadoop(), input, Config{
			Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: alg,
		}); err != nil {
			t.Fatalf("%s on hadoop: %v", alg, err)
		}
	}
}

func TestLookupFailsWhenTableExceedsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sets := randomMultisets(rng, 300, 200, 8, 2)
	input := records.BuildInput("in", sets, 4)
	cl := mr.NewCluster(4, 1500) // tiny budget: Uni table won't fit
	_, err := Join(cl, input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Lookup})
	if !errors.Is(err, mr.ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	// Sharding survives the same budget: its side table only holds the
	// few multisets with underlying cardinality above C.
	res, err := Join(cl, input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Sharding, ShardC: 6})
	if err != nil {
		t.Fatalf("sharding under pressure: %v", err)
	}
	want := ppjoin.Naive(sets, similarity.Ruzicka{}, 0.5)
	if !records.SamePairs(res.Pairs, want, 1e-9) {
		t.Fatalf("sharding wrong under pressure: got %d want %d", len(res.Pairs), len(want))
	}
}

func TestChunkedSimilarity1(t *testing.T) {
	// A hot element shared by many multisets forces the Similarity1
	// reduce list past the memory budget, triggering chunk-pair records.
	var sets []multiset.Multiset
	for i := 1; i <= 120; i++ {
		entries := []multiset.Entry{
			{Elem: 7, Count: 1},                          // shared hot element
			{Elem: multiset.Elem(1000 + i%11), Count: 2}, // small clusters
			{Elem: multiset.Elem(5000 + i), Count: 1},    // unique noise
		}
		sets = append(sets, multiset.New(multiset.ID(i), entries))
	}
	cl := mr.NewCluster(3, 1000) // enough for tables, too small for the hot list
	res, err := Join(cl, records.BuildInput("in", sets, 5), Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.3, Algorithm: Sharding, ShardC: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimilarityStats.Counter(CounterChunkedLists) == 0 {
		t.Fatal("expected chunked lists")
	}
	if res.SimilarityStats.Counter(CounterChunkRecords) < 3 {
		t.Fatalf("expected several chunk records, got %d", res.SimilarityStats.Counter(CounterChunkRecords))
	}
	want := ppjoin.Naive(sets, similarity.Ruzicka{}, 0.3)
	if !records.SamePairs(res.Pairs, want, 1e-9) {
		t.Fatalf("chunked join wrong: got %d want %d pairs", len(res.Pairs), len(want))
	}
}

func TestChunkedMatchesUnchunked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sets := randomMultisets(rng, 120, 8, 5, 3) // small alphabet → long lists
	input := records.BuildInput("in", sets, 4)
	big, err := Join(mr.NewCluster(3, 1<<20), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.4, Algorithm: Sharding,
	})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Join(mr.NewCluster(3, 400), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.4, Algorithm: Sharding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.SimilarityStats.Counter(CounterChunkedLists) == 0 {
		t.Fatal("small-memory run should have chunked")
	}
	if big.SimilarityStats.Counter(CounterChunkedLists) != 0 {
		t.Fatal("large-memory run should not have chunked")
	}
	if !records.SamePairs(big.Pairs, small.Pairs, 1e-9) {
		t.Fatalf("chunked vs unchunked mismatch: %d vs %d pairs", len(big.Pairs), len(small.Pairs))
	}
}

func TestStopWordsDropHotElements(t *testing.T) {
	// Element 1 appears in every multiset; with q below the corpus size it
	// must be dropped, removing the similarity it induced.
	var sets []multiset.Multiset
	for i := 1; i <= 30; i++ {
		sets = append(sets, multiset.New(multiset.ID(i), []multiset.Entry{
			{Elem: 1, Count: 5},
			{Elem: multiset.Elem(100 + i), Count: 1},
		}))
	}
	input := records.BuildInput("in", sets, 3)
	with, err := Join(testCluster(3), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.3, Algorithm: Lookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Pairs) == 0 {
		t.Fatal("hot element should create pairs")
	}
	without, err := Join(testCluster(3), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.3, Algorithm: Lookup, StopWordQ: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Pairs) != 0 {
		t.Fatalf("stop word not dropped: %v", without.Pairs)
	}
	if without.JoiningStats.Counter(CounterStopWords) != 1 {
		t.Fatalf("stop word counter: %d", without.JoiningStats.Counter(CounterStopWords))
	}
}

func TestStopWordsKeepElementsAtQ(t *testing.T) {
	// Element shared by exactly q multisets survives.
	var sets []multiset.Multiset
	for i := 1; i <= 5; i++ {
		sets = append(sets, multiset.New(multiset.ID(i), []multiset.Entry{{Elem: 1, Count: 1}}))
	}
	input := records.BuildInput("in", sets, 2)
	res, err := Join(testCluster(2), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.9, Algorithm: Sharding, StopWordQ: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All 5 multisets are identical → C(5,2) = 10 pairs at sim 1.
	if len(res.Pairs) != 10 {
		t.Fatalf("pairs: got %d want 10", len(res.Pairs))
	}
}

func TestConfigValidation(t *testing.T) {
	input := records.BuildInput("in", nil, 1)
	cases := []Config{
		{}, // no measure
		{Measure: similarity.Ruzicka{}, Threshold: -0.1},
		{Measure: similarity.Ruzicka{}, Threshold: 1.5},
		{Measure: similarity.Ruzicka{}, ShardC: -1},
		{Measure: similarity.Ruzicka{}, StopWordQ: -2},
	}
	for i, cfg := range cases {
		if _, err := Join(testCluster(1), input, cfg); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if _, err := Join(testCluster(1), input, Config{Measure: similarity.Ruzicka{}, Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if OnlineAggregation.String() != "online-aggregation" ||
		Lookup.String() != "lookup" || Sharding.String() != "sharding" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(42).String() == "" {
		t.Fatal("unknown algorithm should render")
	}
}

func TestShardingInsensitiveToC(t *testing.T) {
	// §7.3: results identical across C values; only cost distribution moves.
	rng := rand.New(rand.NewSource(31))
	sets := randomMultisets(rng, 60, 30, 9, 3)
	input := records.BuildInput("in", sets, 4)
	var base []records.Pair
	for i, c := range []int{1, 4, 16, 64, 4096} {
		res, err := Join(testCluster(4), input, Config{
			Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Sharding, ShardC: c,
		})
		if err != nil {
			t.Fatalf("C=%d: %v", c, err)
		}
		if i == 0 {
			base = res.Pairs
			continue
		}
		if !records.SamePairs(res.Pairs, base, 1e-9) {
			t.Fatalf("C=%d changed the result", c)
		}
	}
}

func TestShardingCostShiftsWithC(t *testing.T) {
	// Fig 7 mechanics: Sharding1 output (the side table) shrinks as C
	// grows, Sharding2 does more on-the-fly aggregation.
	rng := rand.New(rand.NewSource(37))
	sets := randomMultisets(rng, 120, 60, 14, 3)
	input := records.BuildInput("in", sets, 6)
	run := func(c int) (tableRecords int64) {
		table, _, err := mr.Run(testCluster(4), sharding1Job(input, c, 0))
		if err != nil {
			t.Fatal(err)
		}
		return table.NumRecords()
	}
	small := run(2)
	large := run(12)
	if small <= large {
		t.Fatalf("table should shrink with C: C=2→%d, C=12→%d", small, large)
	}
}

func TestJoinedTuplesCarryCorrectUni(t *testing.T) {
	// White-box: every joining algorithm must attach exactly Uni(Mi) to
	// every element of Mi.
	rng := rand.New(rand.NewSource(41))
	sets := randomMultisets(rng, 25, 15, 6, 4)
	input := records.BuildInput("in", sets, 3)
	wantUni := map[multiset.ID]similarity.UniStats{}
	for _, s := range sets {
		wantUni[s.ID] = similarity.UniOf(s)
	}

	// Online-Aggregation and Sharding produce joined datasets directly.
	oaOut, _, err := mr.Run(testCluster(3), onlineAggregationJob(input, 0))
	if err != nil {
		t.Fatal(err)
	}
	verifyJoined(t, "online-aggregation", oaOut.All(), wantUni)

	table, _, err := mr.Run(testCluster(3), sharding1Job(input, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	shOut, _, err := mr.Run(testCluster(3), sharding2Job(input, table, 0))
	if err != nil {
		t.Fatal(err)
	}
	verifyJoined(t, "sharding", shOut.All(), wantUni)
}

func verifyJoined(t *testing.T, name string, recs []mrfs.Record, wantUni map[multiset.ID]similarity.UniStats) {
	t.Helper()
	perID := map[multiset.ID]int{}
	for _, rec := range recs {
		id, err := records.DecodeRawKey(rec.Key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		uni, entry, err := decodeJoinedVal(rec.Val)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if uni != wantUni[id] {
			t.Fatalf("%s: M%d uni = %+v want %+v", name, id, uni, wantUni[id])
		}
		if entry.Count == 0 {
			t.Fatalf("%s: zero count element", name)
		}
		perID[id]++
	}
	for id, want := range wantUni {
		if perID[id] != int(want.UCard) {
			t.Fatalf("%s: M%d has %d joined tuples, want %d", name, id, perID[id], want.UCard)
		}
	}
}

func TestResultStatsSplitPhases(t *testing.T) {
	sets := randomMultisets(rand.New(rand.NewSource(3)), 20, 15, 5, 2)
	input := records.BuildInput("in", sets, 2)
	res, err := Join(testCluster(2), input, Config{
		Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Sharding,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JoiningStats.Jobs) != 2 { // sharding1 + sharding2
		t.Fatalf("joining jobs: %d", len(res.JoiningStats.Jobs))
	}
	if len(res.SimilarityStats.Jobs) != 2 { // similarity1 + similarity2
		t.Fatalf("similarity jobs: %d", len(res.SimilarityStats.Jobs))
	}
	total := res.JoiningStats.TotalSeconds + res.SimilarityStats.TotalSeconds
	if res.Stats.TotalSeconds != total {
		t.Fatalf("stats not additive: %v vs %v", res.Stats.TotalSeconds, total)
	}
}

func TestJoiningStepCounts(t *testing.T) {
	// OA: 1 joining job; Lookup: 1 joining + fused; Sharding: 2 joining.
	sets := randomMultisets(rand.New(rand.NewSource(5)), 15, 12, 4, 2)
	input := records.BuildInput("in", sets, 2)
	oa, err := Join(testCluster(2), input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: OnlineAggregation})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := Join(testCluster(2), input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Lookup})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Join(testCluster(2), input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Sharding})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(oa.Stats.Jobs); n != 3 {
		t.Fatalf("OA should run 3 jobs, ran %d", n)
	}
	if n := len(lk.Stats.Jobs); n != 3 {
		t.Fatalf("Lookup should run 3 jobs, ran %d", n)
	}
	if n := len(sh.Stats.Jobs); n != 4 {
		t.Fatalf("Sharding should run 4 jobs, ran %d", n)
	}
}

// TestDecodeChunkValRejectsCorruptCount: the posting count is read
// straight from the record, so a corrupt one used to size the slice —
// a makeslice panic, or gigabytes. It must be the ordinary decode error.
func TestDecodeChunkValRejectsCorruptCount(t *testing.T) {
	entries := []indexEntry{{ID: 7, Count: 2}, {ID: 9, Count: 1}}
	encodeChunkVal := func(left, right []indexEntry) []byte {
		var b codec.Buffer
		putChunkVal(&b, left, right)
		return b.Clone()
	}
	good := encodeChunkVal(entries, entries[:1])
	if l, r, err := decodeChunkVal(good); err != nil || len(l) != 2 || len(r) != 1 {
		t.Fatalf("round trip: %v %v %v", l, r, err)
	}
	var huge codec.Buffer
	huge.PutUvarint(1 << 62) // makeslice: cap out of range before the fix
	var big codec.Buffer
	big.PutUvarint(1 << 30) // a 40 GB allocation before the fix
	big.PutUvarint(0)
	leftOnly := encodeChunkVal(entries, nil)
	leftOnly = leftOnly[:len(leftOnly)-1] // drop the right side's count of 0
	for name, val := range map[string][]byte{
		"count beyond any slice": huge.Clone(),
		"count beyond the bytes": big.Clone(),
		"right side corrupt":     append(leftOnly, 0xff, 0xff, 0x03), // uvarint 65535
	} {
		if _, _, err := decodeChunkVal(val); err == nil || !strings.Contains(err.Error(), "bad chunk val") {
			t.Errorf("%s: err = %v, want a bad chunk val error", name, err)
		}
	}
}
