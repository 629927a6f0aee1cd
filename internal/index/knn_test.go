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
