package index

import (
	"math/rand"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// oracleKNN is the inner-layer kNN oracle: every entity sharing an
// element with q (the internal contract: dist < 1 strictly), verified
// exhaustively and ordered in similarity space, the one currency below
// the public edge — nearest first is most similar first. (Ordering by
// the computed distance 1 − sim instead would differ wherever two
// adjacent similarities round to one distance; those ties are the
// public layer's to re-break, by name, where it produces distances.)
func oracleKNN(sets []multiset.Multiset, q multiset.Multiset, k int, m similarity.Measure) []Match {
	var out []Match
	qUni := similarity.UniOf(q)
	for _, s := range sets {
		if conj := similarity.ConjOf(q, s); s.ID != q.ID && conj.Common > 0 {
			out = append(out, Match{ID: s.ID, Sim: m.Sim(qUni, similarity.UniOf(s), conj)})
		}
	}
	SortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
		if d := a[i].Sim - b[i].Sim; d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

// TestQueryKNNMatchesOracle gates the claim the serving stack rests on
// — the top-k pass IS the kNN pass — against the exhaustive oracle,
// including duplicate multisets (maximal ID tie groups) and
// self-queries of every indexed entity.
func TestQueryKNNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sets := randomMultisets(rng, 40, 30, 8, 4)
	// Duplicates of set 0 put an ID tie group at distance 0.
	sets = append(sets,
		multiset.Multiset{ID: 100, Entries: sets[0].Entries},
		multiset.Multiset{ID: 101, Entries: sets[0].Entries},
	)
	for _, m := range similarity.All() {
		ix := buildIndex(m, sets)
		for _, k := range []int{1, 5, 50} {
			for _, q := range sets {
				// The oracle excludes q's own ID like KNNAgainst does; the
				// index has no such notion, so query a fresh ID.
				probe := multiset.Multiset{ID: 9999, Entries: q.Entries}
				got := ix.QueryKNNInto(QueryOf(probe), k, nil)
				want := oracleKNN(sets, probe, k, m)
				if !matchesEqual(got, want) {
					t.Fatalf("%s k=%d q=%d:\n got %v\nwant %v", m.Name(), k, q.ID, got, want)
				}
			}
		}
	}
}

// TestQueryKNNIntoReusesBuffer pins the Into contract: results append
// into the provided buffer, preserving its existing contents.
func TestQueryKNNIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := randomMultisets(rng, 20, 15, 6, 3)
	m := similarity.All()[0]
	ix := buildIndex(m, sets)
	sentinel := Match{ID: 777, Sim: -1}
	buf := append(make([]Match, 0, 16), sentinel)
	out := ix.QueryKNNInto(QueryOf(sets[2]), 5, buf)
	if len(out) < 2 || out[0] != sentinel {
		t.Fatalf("existing buffer contents clobbered: %v", out)
	}
	fresh := ix.QueryTopKInto(QueryOf(sets[2]), 5, nil)
	if !matchesEqual(out[1:], fresh) {
		t.Fatalf("Into appended %v, a fresh query returned %v", out[1:], fresh)
	}
	if got := ix.QueryKNNInto(QueryOf(sets[2]), 0, buf[:1]); len(got) != 1 {
		t.Fatalf("k=0 appended results: %v", got)
	}
}

// TestMergeTopKInto gates the fan-out merge: per-partition k-lists fold
// into the global k best with ties surviving by smallest ID, and only
// the appended region is sorted.
func TestMergeTopKInto(t *testing.T) {
	a := []Match{{ID: 1, Sim: 0.9}, {ID: 5, Sim: 0.5}, {ID: 9, Sim: 0.1}}
	b := []Match{{ID: 2, Sim: 0.9}, {ID: 4, Sim: 0.5}, {ID: 6, Sim: 0.4}}
	got := MergeTopKInto(4, nil, a, b)
	want := []Match{{ID: 1, Sim: 0.9}, {ID: 2, Sim: 0.9}, {ID: 4, Sim: 0.5}, {ID: 5, Sim: 0.5}}
	if !matchesEqual(got, want) {
		t.Fatalf("MergeTopKInto = %v, want %v", got, want)
	}
	if got := MergeTopKInto(0, nil, a, b); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := MergeTopKInto(10, nil, a); !matchesEqual(got, a) {
		t.Fatalf("single short list changed: %v", got)
	}
	prefix := []Match{{ID: 42, Sim: 0.1}}
	out := MergeTopKInto(2, prefix, b, a)
	if out[0] != prefix[0] {
		t.Fatalf("MergeTopKInto clobbered the existing buffer: %v", out)
	}
	if !matchesEqual(out[1:], want[:2]) {
		t.Fatalf("MergeTopKInto appended %v, want %v", out[1:], want[:2])
	}
}

// TestMergeTopKIntoMatchesGlobalSort cross-checks the bounded heap
// against a concatenate-sort-truncate reference on random per-partition
// lists.
func TestMergeTopKIntoMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		var lists [][]Match
		var all []Match
		for p := 0; p < 1+rng.Intn(4); p++ {
			var list []Match
			for i := 0; i < rng.Intn(2*k); i++ {
				m := Match{
					ID:  multiset.ID(rng.Intn(20) + 1),
					Sim: float64(rng.Intn(5)) / 5, // coarse grid forces ties
				}
				list = append(list, m)
				all = append(all, m)
			}
			SortMatches(list)
			if len(list) > k {
				list = list[:k]
			}
			lists = append(lists, list)
		}
		SortMatches(all)
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if got := MergeTopKInto(k, nil, lists...); !matchesEqual(got, want) {
			t.Fatalf("trial %d k=%d: MergeTopKInto %v, reference %v\nlists: %v", trial, k, got, want, lists)
		}
	}
}
