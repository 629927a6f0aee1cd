package knn

import (
	"fmt"
	"math/rand"
	"testing"

	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// randSets builds n random multisets with cardinalities spread widely
// enough to populate several pivot groups.
func randSets(rng *rand.Rand, n, alphabet, maxLen int) []multiset.Multiset {
	out := make([]multiset.Multiset, n)
	for i := range out {
		ln := 1 + rng.Intn(maxLen)
		entries := make([]multiset.Entry, 0, ln)
		for j := 0; j < ln; j++ {
			entries = append(entries, multiset.Entry{
				Elem:  multiset.Elem(rng.Intn(alphabet)),
				Count: uint32(1 + rng.Intn(4)),
			})
		}
		out[i] = multiset.New(multiset.ID(i+1), entries)
	}
	return out
}

func sameLists(t *testing.T, id multiset.ID, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("entity %d: got %d neighbors, want %d\n got: %v\nwant: %v", id, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entity %d neighbor %d: got %v, want %v", id, i, got[i], want[i])
		}
	}
}

// TestAllKNNMatchesBrute gates the three-job pipeline against the
// whole-dataset quadratic kernel: identical lists — same IDs, same
// order, bit-identical distances — for every measure family the bounds
// specialize on and for k below, at, and above the typical list length.
func TestAllKNNMatchesBrute(t *testing.T) {
	for _, name := range []string{"ruzicka", "jaccard", "dice", "cosine", "vector-cosine", "overlap"} {
		m, err := similarity.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 10} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				sets := randSets(rng, 60, 40, 64)
				want := KNNBrute(sets, m, k)

				cluster := mr.NewCluster(4, 1<<30)
				input := records.BuildInput("knn-in", sets, 8)
				res, err := AllKNN(cluster, input, Config{Measure: m, K: k})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Lists) != len(sets) {
					t.Fatalf("got lists for %d entities, want %d", len(res.Lists), len(sets))
				}
				for i, s := range sets {
					sameLists(t, s.ID, res.Lists[s.ID], want[i])
				}
				if got := len(res.Stats.Jobs); got != 3 {
					t.Fatalf("pipeline ran %d jobs, want 3", got)
				}
			})
		}
	}
}

// TestAllKNNHadoopIdentical proves the pipeline needs no secondary-key
// support: Hadoop-compatible clusters produce byte-identical lists.
func TestAllKNNHadoopIdentical(t *testing.T) {
	m, _ := similarity.ByName("ruzicka")
	rng := rand.New(rand.NewSource(7))
	sets := randSets(rng, 40, 30, 32)
	input := records.BuildInput("knn-in", sets, 8)

	a, err := AllKNN(mr.NewCluster(4, 1<<30), input, Config{Measure: m, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllKNN(mr.NewCluster(4, 1<<30).Hadoop(), input, Config{Measure: m, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		sameLists(t, s.ID, b.Lists[s.ID], a.Lists[s.ID])
	}
}

// TestAllKNNPrunesGroups pins the point of the bounds: on a dataset
// with two well-separated cardinality clusters and tight local
// neighborhoods, the refine stage must actually skip foreign groups —
// otherwise the pipeline is brute force with extra steps.
func TestAllKNNPrunesGroups(t *testing.T) {
	m, _ := similarity.ByName("ruzicka")
	var sets []multiset.Multiset
	id := multiset.ID(1)
	// Small cluster: near-identical multisets of cardinality ~8.
	for i := 0; i < 6; i++ {
		entries := []multiset.Entry{{Elem: 1, Count: 4}, {Elem: 2, Count: 3}, {Elem: multiset.Elem(3 + i%2), Count: 1}}
		sets = append(sets, multiset.New(id, entries))
		id++
	}
	// Large cluster: near-identical multisets of cardinality ~4096.
	for i := 0; i < 6; i++ {
		entries := []multiset.Entry{{Elem: 10, Count: 4000}, {Elem: 11, Count: 90}, {Elem: multiset.Elem(12 + i%2), Count: 6}}
		sets = append(sets, multiset.New(id, entries))
		id++
	}
	input := records.BuildInput("knn-in", sets, 4)
	res, err := AllKNN(mr.NewCluster(2, 1<<30), input, Config{Measure: m, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := KNNBrute(sets, m, 2)
	for i, s := range sets {
		sameLists(t, s.ID, res.Lists[s.ID], want[i])
	}
	pruned := res.Stats.Counter(CounterGroupsPruned)
	if pruned == 0 {
		t.Fatalf("no groups pruned on a two-cluster dataset (probed %d)", res.Stats.Counter(CounterGroupsProbed))
	}
}

// TestAllKNNRejectsBadConfig covers the argument guards.
func TestAllKNNRejectsBadConfig(t *testing.T) {
	m, _ := similarity.ByName("ruzicka")
	input := records.BuildInput("knn-in", randSets(rand.New(rand.NewSource(1)), 4, 10, 8), 2)
	if _, err := AllKNN(mr.NewCluster(2, 1<<30), input, Config{Measure: m, K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := AllKNN(mr.NewCluster(2, 1<<30), input, Config{K: 3}); err == nil {
		t.Fatal("nil measure accepted")
	}
}
