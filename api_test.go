package vsmartjoin

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"vsmartjoin/internal/mr"
)

func demoDataset() *Dataset {
	d := NewDataset()
	d.Add("ip-1", map[string]uint32{"a": 3, "b": 1, "c": 2})
	d.Add("ip-2", map[string]uint32{"a": 2, "b": 2, "c": 2})
	d.Add("ip-3", map[string]uint32{"z": 9, "y": 4})
	d.Add("ip-4", map[string]uint32{"z": 8, "y": 5})
	d.Add("ip-5", map[string]uint32{"q": 1})
	return d
}

func TestAllPairsQuickstart(t *testing.T) {
	res, err := AllPairs(demoDataset(), Options{Measure: "ruzicka", Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("pairs: %v", res.Pairs)
	}
	if res.Pairs[0].A != "ip-1" || res.Pairs[0].B != "ip-2" {
		t.Fatalf("pair 0: %v", res.Pairs[0])
	}
	if res.Pairs[1].A != "ip-3" || res.Pairs[1].B != "ip-4" {
		t.Fatalf("pair 1: %v", res.Pairs[1])
	}
	if res.Stats.TotalSeconds <= 0 || res.Stats.Jobs != 3 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if res.Stats.OutputPairs != 2 {
		t.Fatalf("output pairs counter: %d", res.Stats.OutputPairs)
	}
}

func TestAllPairsAlgorithmsAgree(t *testing.T) {
	var base []Pair
	for i, alg := range []string{AlgorithmOnlineAggregation, AlgorithmLookup, AlgorithmSharding} {
		res, err := AllPairs(demoDataset(), Options{Threshold: 0.5, Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if i == 0 {
			base = res.Pairs
			continue
		}
		if len(res.Pairs) != len(base) {
			t.Fatalf("%s: %v vs %v", alg, res.Pairs, base)
		}
		for j := range base {
			if res.Pairs[j] != base[j] {
				t.Fatalf("%s pair %d: %v vs %v", alg, j, res.Pairs[j], base[j])
			}
		}
	}
}

func TestCommunities(t *testing.T) {
	res, err := AllPairs(demoDataset(), Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	comms := res.Communities()
	if len(comms) != 2 {
		t.Fatalf("communities: %v", comms)
	}
	if comms[0][0] != "ip-1" && comms[0][0] != "ip-3" {
		t.Fatalf("members: %v", comms)
	}
}

func TestHadoopCompatDefaultsToSharding(t *testing.T) {
	res, err := AllPairs(demoDataset(), Options{Threshold: 0.5, HadoopCompat: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Jobs != 4 { // sharding1, sharding2, similarity1, similarity2
		t.Fatalf("jobs: %d", res.Stats.Jobs)
	}
	// Online-aggregation must be rejected in Hadoop mode.
	if _, err := AllPairs(demoDataset(), Options{
		Threshold: 0.5, HadoopCompat: true, Algorithm: AlgorithmOnlineAggregation,
	}); err == nil {
		t.Fatal("online-aggregation should fail in Hadoop mode")
	}
}

func TestAddMergesDuplicates(t *testing.T) {
	d := NewDataset()
	d.Add("e", map[string]uint32{"x": 1})
	d.Add("e", map[string]uint32{"x": 2, "y": 1})
	if d.Len() != 1 {
		t.Fatalf("len: %d", d.Len())
	}
	sim, err := Similarity("ruzicka", map[string]uint32{"x": 3, "y": 1}, map[string]uint32{"x": 3, "y": 1})
	if err != nil || sim != 1 {
		t.Fatalf("similarity: %v %v", sim, err)
	}
	// AllPairs joins the merged multiset {x:3, y:1}.
	d.Add("f", map[string]uint32{"x": 3, "y": 1})
	res, err := AllPairs(d, Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Pair{{A: "e", B: "f", Similarity: 1}}; !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("AllPairs: %v, want %v", res.Pairs, want)
	}
	// A merged count past math.MaxUint32 saturates instead of wrapping.
	d.Add("g", map[string]uint32{"x": math.MaxUint32})
	d.Add("g", map[string]uint32{"x": 2})
	d.Each(func(name string, counts map[string]uint32) bool {
		if name == "g" && counts["x"] != math.MaxUint32 {
			t.Fatalf("saturating merge: x = %d, want %d", counts["x"], uint32(math.MaxUint32))
		}
		return true
	})
}

func TestAddSetAndByID(t *testing.T) {
	d := NewDataset()
	d.AddSet("doc-1", []string{"w1", "w2", "w3"})
	d.AddSet("doc-2", []string{"w2", "w3", "w4"})
	res, err := AllPairs(d, Options{Measure: "jaccard", Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || math.Abs(res.Pairs[0].Similarity-0.5) > 1e-12 {
		t.Fatalf("pairs: %v", res.Pairs)
	}
}

func TestStopWords(t *testing.T) {
	d := NewDataset()
	for i := 0; i < 20; i++ {
		d.Add(string(rune('a'+i)), map[string]uint32{"shared": 5, string(rune('A' + i)): 1})
	}
	res, err := AllPairs(d, Options{Threshold: 0.3, StopWordQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("stop word survived: %v", res.Pairs)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := AllPairs(nil, Options{}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := AllPairs(NewDataset(), Options{}); err == nil {
		t.Fatal("empty dataset should fail")
	}
	if _, err := AllPairs(demoDataset(), Options{Measure: "nope"}); err == nil {
		t.Fatal("unknown measure should fail")
	}
	if _, err := AllPairs(demoDataset(), Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := Similarity("nope", nil, nil); err == nil {
		t.Fatal("unknown measure should fail")
	}
}

func TestAllMeasuresThroughAPI(t *testing.T) {
	for _, m := range []string{"ruzicka", "jaccard", "dice", "set-dice", "cosine", "set-cosine", "vector-cosine", "overlap"} {
		res, err := AllPairs(demoDataset(), Options{Measure: m, Threshold: 0.4})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for _, p := range res.Pairs {
			if p.Similarity < 0.4-1e-9 || p.Similarity > 1+1e-9 {
				t.Fatalf("%s: out-of-range pair %v", m, p)
			}
		}
	}
}

func TestTinyMemoryOOMPropagates(t *testing.T) {
	d := demoDataset()
	_, err := AllPairs(d, Options{Threshold: 0.5, Algorithm: AlgorithmLookup, MemPerMachine: 10})
	if err == nil {
		t.Fatal("expected OOM with a 10-byte budget")
	}
	if !errors.Is(err, mr.ErrOutOfMemory) {
		t.Fatalf("unexpected error: %v", err)
	}
}
