package knn

import (
	"math/rand"
	"sort"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// oracleKNN recomputes one set's k-nearest list the slow, obvious way:
// every pairwise distance, full sort under the canonical (distance,
// ID) order, truncate.
func oracleKNN(sets []multiset.Multiset, i, k int, m similarity.Measure) []Neighbor {
	var out []Neighbor
	for j, s := range sets {
		if j == i {
			continue
		}
		sim := m.Sim(similarity.UniOf(sets[i]), similarity.UniOf(s), similarity.ConjOf(sets[i], s))
		out = append(out, Neighbor{ID: s.ID, Dist: 1 - sim})
	}
	sort.Slice(out, func(a, b int) bool { return worse(out[b], out[a]) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestKNNBruteMatchesOracle gates the bounded-insert kernel against the
// sort-everything oracle — in particular the distance-tie ID ordering
// (duplicate multisets) and non-overlapping pairs sitting at exactly 1.
func TestKNNBruteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sets := randSets(rng, 30, 12, 5)
	// Duplicates of set 0 create maximal tie groups; a disjoint set
	// sits at distance exactly 1 from everything in the band.
	sets = append(sets,
		multiset.Multiset{ID: 100, Entries: sets[0].Entries},
		multiset.Multiset{ID: 101, Entries: sets[0].Entries},
		multiset.New(102, []multiset.Entry{{Elem: 9999, Count: 1}}),
	)
	m, err := similarity.ByName("jaccard")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 50} {
		lists := KNNBrute(sets, m, k)
		for i := range sets {
			want := oracleKNN(sets, i, k, m)
			if !neighborsEqual(lists[i], want) {
				t.Fatalf("k=%d set %d: KNNBrute %v, oracle %v", k, sets[i].ID, lists[i], want)
			}
		}
	}
	if lists := KNNBrute(sets, m, 0); len(lists) != len(sets) {
		t.Fatal("k=0 must still return one (empty) slot per set")
	}
}

// TestKNNAgainstMatchesOracle gates the probe-side kernel: an external
// query against a member slice, with a same-ID member skipped — the
// refine phase's self-pair exclusion.
func TestKNNAgainstMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sets := randSets(rng, 25, 10, 5)
	m, err := similarity.ByName("ruzicka")
	if err != nil {
		t.Fatal(err)
	}
	q := sets[4] // present in members: must be excluded from its own list
	for _, k := range []int{1, 5, 50} {
		got := KNNAgainst(q, sets, m, k)
		want := oracleKNN(sets, 4, k, m)
		if !neighborsEqual(got, want) {
			t.Fatalf("k=%d: KNNAgainst %v, oracle %v", k, got, want)
		}
		for _, n := range got {
			if n.ID == q.ID {
				t.Fatalf("k=%d: query's own ID in its list", k)
			}
		}
	}
	if got := KNNAgainst(q, sets, m, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

// TestInsertNeighborBounded pins the bounded-insert invariants directly:
// capacity k is never exceeded, the list stays sorted, and an arrival
// no better than the current worst of a full list is a no-op.
func TestInsertNeighborBounded(t *testing.T) {
	var list []Neighbor
	arrivals := []Neighbor{
		{ID: 5, Dist: 0.5}, {ID: 3, Dist: 0.2}, {ID: 9, Dist: 0.8},
		{ID: 1, Dist: 0.2}, {ID: 7, Dist: 0.1}, {ID: 2, Dist: 0.5},
	}
	for _, n := range arrivals {
		list = insertNeighbor(list, n, 3)
		if len(list) > 3 {
			t.Fatalf("list grew past k: %v", list)
		}
		for i := 1; i < len(list); i++ {
			if worse(list[i-1], list[i]) {
				t.Fatalf("list out of order after %v: %v", n, list)
			}
		}
	}
	want := []Neighbor{{ID: 7, Dist: 0.1}, {ID: 1, Dist: 0.2}, {ID: 3, Dist: 0.2}}
	if !neighborsEqual(list, want) {
		t.Fatalf("final list %v, want %v", list, want)
	}
	if got := insertNeighbor(list, Neighbor{ID: 8, Dist: 0.9}, 3); !neighborsEqual(got, want) {
		t.Fatalf("worse-than-worst arrival mutated the list: %v", got)
	}
}
