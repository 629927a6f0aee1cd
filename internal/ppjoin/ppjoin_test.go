package ppjoin

import (
	"math"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

func TestNaiveSmallKnown(t *testing.T) {
	sets := []multiset.Multiset{
		multiset.FromSet(1, []multiset.Elem{1, 2, 3, 4}),
		multiset.FromSet(2, []multiset.Elem{1, 2, 3, 5}),
		multiset.FromSet(3, []multiset.Elem{7, 8}),
	}
	out := Naive(sets, similarity.Jaccard{}, 0.5)
	if len(out) != 1 || out[0].A != 1 || out[0].B != 2 {
		t.Fatalf("naive: %v", out)
	}
	if math.Abs(out[0].Sim-0.6) > 1e-12 {
		t.Fatalf("sim: %v", out[0].Sim)
	}
}

func TestNaiveExcludesDisjointPairs(t *testing.T) {
	sets := []multiset.Multiset{
		multiset.FromSet(1, []multiset.Elem{1}),
		multiset.FromSet(2, []multiset.Elem{2}),
	}
	out := Naive(sets, similarity.Jaccard{}, 0)
	if len(out) != 0 {
		t.Fatalf("disjoint pair emitted: %v", out)
	}
}
