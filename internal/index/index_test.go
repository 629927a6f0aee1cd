package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/ppjoin"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

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

func buildIndex(m similarity.Measure, sets []multiset.Multiset) *Index {
	ix := New(m)
	for _, s := range sets {
		ix.Add(s)
	}
	return ix
}

// oracleMatches restricts the naive all-pair join to the pairs involving
// the query ID.
func oracleMatches(sets []multiset.Multiset, m similarity.Measure, t float64, id multiset.ID) map[multiset.ID]float64 {
	out := make(map[multiset.ID]float64)
	for _, p := range ppjoin.Naive(sets, m, t) {
		switch id {
		case p.A:
			out[p.B] = p.Sim
		case p.B:
			out[p.A] = p.Sim
		}
	}
	return out
}

// TestQueryThresholdMatchesNaive is the core exactness property: for every
// measure and threshold, querying each indexed entity must return exactly
// the naive oracle's pairs for that entity.
func TestQueryThresholdMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		sets := randomMultisets(rng, 40, 30, 8, 4)
		for _, m := range similarity.All() {
			ix := buildIndex(m, sets)
			for _, thr := range []float64{0, 0.3, 0.5, 0.9} {
				for _, q := range sets {
					got := ix.QueryThresholdInto(QueryOf(q), thr, nil)
					want := oracleMatches(sets, m, thr, q.ID)
					if len(got) != len(want) {
						t.Fatalf("trial %d %s t=%v q=%d: got %d matches want %d\ngot: %v\nwant: %v",
							trial, m.Name(), thr, q.ID, len(got), len(want), got, want)
					}
					for _, match := range got {
						sim, ok := want[match.ID]
						if !ok {
							t.Fatalf("trial %d %s t=%v q=%d: unexpected match %v", trial, m.Name(), thr, q.ID, match)
						}
						if d := sim - match.Sim; d < -1e-9 || d > 1e-9 {
							t.Fatalf("trial %d %s t=%v q=%d: match %d sim %v want %v",
								trial, m.Name(), thr, q.ID, match.ID, match.Sim, sim)
						}
					}
				}
			}
		}
	}
}

// TestQueryTopKMatchesSortedThreshold checks top-k against the full
// threshold-0 ranking.
func TestQueryTopKMatchesSortedThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := randomMultisets(rng, 50, 25, 8, 3)
	for _, m := range similarity.All() {
		ix := buildIndex(m, sets)
		for _, q := range sets[:10] {
			all := ix.QueryThresholdInto(QueryOf(q), 0, nil)
			for _, k := range []int{1, 3, 10, 1000} {
				got := ix.QueryTopKInto(QueryOf(q), k, nil)
				wantLen := min(k, len(all))
				if len(got) != wantLen {
					t.Fatalf("%s q=%d k=%d: got %d matches want %d", m.Name(), q.ID, k, len(got), wantLen)
				}
				for i, match := range got {
					if match != all[i] {
						t.Fatalf("%s q=%d k=%d: rank %d got %v want %v", m.Name(), q.ID, k, i, match, all[i])
					}
				}
			}
		}
	}
}

// TestAdHocQueryIncludesQueryMass verifies that a query multiset not in
// the index is still weighed correctly: its full cardinality (including
// elements absent from the index alphabet, modeled via Extra) must appear
// in the similarity denominators.
func TestAdHocQueryIncludesQueryMass(t *testing.T) {
	ix := New(similarity.Ruzicka{})
	ix.Add(multiset.FromCounts(1, map[multiset.Elem]uint32{1: 2, 2: 2}))

	// Query {1:2, 2:2} plus 4 units of unknown mass: Σmin = 4, |q| = 8,
	// |c| = 4 → Ruzicka = 4 / (8 + 4 − 4) = 0.5.
	q := Query{
		Set:   multiset.FromCounts(0, map[multiset.Elem]uint32{1: 2, 2: 2}),
		Extra: similarity.UniStats{Card: 4, UCard: 2, SumSq: 8},
	}
	got := ix.QueryThresholdInto(q, 0.4, nil)
	if len(got) != 1 || got[0].Sim != 0.5 {
		t.Fatalf("matches: %v", got)
	}
	// Raising the threshold above the diluted similarity must drop it.
	if got := ix.QueryThresholdInto(q, 0.6, nil); len(got) != 0 {
		t.Fatalf("diluted query matched: %v", got)
	}
}

// TestRemoveAndReplace exercises tombstone handling: removed entities must
// vanish from results, replaced entities must answer with their new
// contents, and compaction must eventually reclaim stale postings.
func TestRemoveAndReplace(t *testing.T) {
	ix := New(similarity.Jaccard{})
	a := multiset.FromSet(1, []multiset.Elem{1, 2, 3})
	b := multiset.FromSet(2, []multiset.Elem{1, 2, 3})
	ix.Add(a)
	ix.Add(b)
	if got := ix.QueryThresholdInto(QueryOf(a), 0.9, nil); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("before remove: %v", got)
	}
	if !ix.Remove(2) {
		t.Fatal("remove reported missing")
	}
	if ix.Remove(2) {
		t.Fatal("double remove reported present")
	}
	if got := ix.QueryThresholdInto(QueryOf(a), 0, nil); len(got) != 0 {
		t.Fatalf("after remove: %v", got)
	}

	// Replace entity 1 with disjoint contents: old postings must not match.
	ix.Add(multiset.FromSet(1, []multiset.Elem{7, 8}))
	if got := ix.QueryThresholdInto(QueryOf(multiset.FromSet(0, []multiset.Elem{1, 2, 3})), 0, nil); len(got) != 0 {
		t.Fatalf("stale postings answered: %v", got)
	}
	if got := ix.QueryThresholdInto(QueryOf(multiset.FromSet(0, []multiset.Elem{7, 8})), 0.9, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("replacement missing: %v", got)
	}

	// Churn enough to force compaction and re-check correctness after it.
	for i := 0; i < 64; i++ {
		ix.Add(multiset.FromSet(99, []multiset.Elem{multiset.Elem(i), multiset.Elem(i + 1)}))
	}
	s := ix.Stats()
	if s.Compactions == 0 {
		t.Fatalf("churn did not compact: %+v", s)
	}
	if got := ix.QueryThresholdInto(QueryOf(multiset.FromSet(0, []multiset.Elem{63, 64})), 0.9, nil); len(got) != 1 || got[0].ID != 99 {
		t.Fatalf("post-compaction query: %v", got)
	}
	if s.Entities != 2 {
		t.Fatalf("entities: %+v", s)
	}
}

// TestSelfPairSkipped verifies an indexed entity never matches itself.
func TestSelfPairSkipped(t *testing.T) {
	ix := New(similarity.Ruzicka{})
	m := multiset.FromCounts(5, map[multiset.Elem]uint32{1: 3})
	ix.Add(m)
	if got := ix.QueryThresholdInto(QueryOf(m), 0, nil); len(got) != 0 {
		t.Fatalf("self pair: %v", got)
	}
	// The same elements under ID 0 (ad hoc) must match it.
	q := multiset.FromCounts(0, map[multiset.Elem]uint32{1: 3})
	if got := ix.QueryThresholdInto(QueryOf(q), 0.99, nil); len(got) != 1 || got[0].Sim != 1 {
		t.Fatalf("ad hoc query: %v", got)
	}
}

// TestEmptyQueries covers the degenerate inputs.
func TestEmptyQueries(t *testing.T) {
	ix := New(similarity.Ruzicka{})
	ix.Add(multiset.FromSet(1, []multiset.Elem{1}))
	if got := ix.QueryThresholdInto(Query{}, 0, nil); got != nil {
		t.Fatalf("empty query: %v", got)
	}
	if got := ix.QueryTopKInto(QueryOf(multiset.FromSet(0, []multiset.Elem{1})), 0, nil); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	if m := ix.Snapshot(9); len(m.Entries) != 0 || m.ID != 9 {
		t.Fatalf("snapshot of missing id: %v", m)
	}
}

// TestStatsFunnel sanity-checks the pruning counters move in the right
// direction: probes ≥ candidates ≥ verified ≥ results, and the prefix
// filter actually skips posting lists on high thresholds.
func TestStatsFunnel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := randomMultisets(rng, 60, 20, 10, 5)
	ix := buildIndex(similarity.Ruzicka{}, sets)
	for _, q := range sets {
		ix.QueryThresholdInto(QueryOf(q), 0.9, nil)
	}
	s := ix.Stats()
	if s.Queries != int64(len(sets)) {
		t.Fatalf("queries: %+v", s)
	}
	if s.Candidates > s.Probes || s.Verified > s.Candidates || s.Results > s.Verified {
		t.Fatalf("funnel out of order: %+v", s)
	}
	if s.Verified != s.Candidates-s.LengthPruned {
		t.Fatalf("length filter accounting: %+v", s)
	}
}

// TestConcurrentMutationAndQuery drives Add/Remove/Query/TopK/Stats from
// many goroutines, mutations under a test-held write lock and queries and
// Stats under its read lock, the exclusion a caller provides; under -race
// this is the data-race gate for concurrent queries, and every query must
// still return internally consistent results (verified sims, sorted
// order).
func TestConcurrentMutationAndQuery(t *testing.T) {
	ix := New(similarity.Ruzicka{})
	var mu sync.RWMutex // the exclusion a caller provides: writes against queries
	const writers, readers, ops = 4, 4, 200
	seed := func(g int) []multiset.Multiset {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		return randomMultisets(rng, ops, 24, 6, 3)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sets := seed(g)
			for i, s := range sets {
				// Partition IDs per writer so replacements are intentional.
				s.ID = multiset.ID(g*ops + i + 1)
				mu.Lock()
				ix.Add(s)
				mu.Unlock()
				if i%3 == 2 {
					mu.Lock()
					ix.Remove(s.ID)
					mu.Unlock()
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sets := seed(g)
			for i, s := range sets {
				q := QueryOf(multiset.Multiset{ID: 0, Entries: s.Entries})
				var got []Match
				mu.RLock()
				if i%2 == 0 {
					got = ix.QueryThresholdInto(q, 0.5, nil)
				} else {
					got = ix.QueryTopKInto(q, 5, nil)
				}
				ix.Stats()
				mu.RUnlock()
				for j, m := range got {
					if m.Sim < 0 || m.Sim > 1+1e-9 {
						t.Errorf("sim out of range: %v", m)
					}
					if j > 0 && worseMatch(got[j-1], m) {
						t.Errorf("results unsorted: %v", got)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if ix.Len() == 0 {
		t.Fatal("index empty after churn")
	}
}

// TestQueryAgainstPairsOracle cross-checks with records.SamePairs shaped
// data: union of per-entity query results at a threshold reconstructs the
// naive pair set exactly.
func TestQueryAgainstPairsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sets := randomMultisets(rng, 45, 35, 9, 4)
	for _, m := range []similarity.Measure{similarity.Ruzicka{}, similarity.VectorCosine{}} {
		ix := buildIndex(m, sets)
		const thr = 0.4
		got := make(map[records.Pair]bool)
		for _, q := range sets {
			for _, match := range ix.QueryThresholdInto(QueryOf(q), thr, nil) {
				p := records.Pair{A: q.ID, B: match.ID}.Canonical()
				p.Sim = 0 // key on identity; sims already checked elsewhere
				got[p] = true
			}
		}
		want := ppjoin.Naive(sets, m, thr)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs via queries, %d via naive", m.Name(), len(got), len(want))
		}
		for _, p := range want {
			p.Sim = 0
			if !got[p] {
				t.Fatalf("%s: missing pair %v", m.Name(), p)
			}
		}
	}
}

func BenchmarkInternalQueryThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sets := randomMultisets(rng, 2000, 400, 20, 5)
	ix := buildIndex(similarity.Ruzicka{}, sets)
	queries := sets[:64]
	for _, thr := range []float64{0.3, 0.7} {
		b.Run(fmt.Sprintf("t=%v", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.QueryThresholdInto(QueryOf(queries[i%len(queries)]), thr, nil)
			}
		})
	}
}

// TestBulkLoadMatchesAdds: the sealed bulk constructor must produce an
// index that answers every query exactly like one built by the same
// Adds — identical matches, scores, and order.
func TestBulkLoadMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sets := randomMultisets(rng, 50, 24, 8, 4)
	m := similarity.Ruzicka{}

	added := buildIndex(m, sets)
	bulk := New(m)
	if err := bulk.BulkLoad(cloneSets(sets)); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != added.Len() {
		t.Fatalf("bulk len %d, added len %d", bulk.Len(), added.Len())
	}
	// Bulk-loaded entities count as adds: a daemon bootstrapped from
	// snapshot files serves them and must not report zero mutations.
	if got, want := bulk.Stats().Adds, added.Stats().Adds; got != want || got == 0 {
		t.Fatalf("bulk-loaded Adds = %d, incremental Adds = %d; want equal and nonzero", got, want)
	}
	for _, q := range sets[:12] {
		for _, thr := range []float64{0, 0.4, 0.8} {
			g := bulk.QueryThresholdInto(QueryOf(q), thr, nil)
			w := added.QueryThresholdInto(QueryOf(q), thr, nil)
			if len(g) != len(w) {
				t.Fatalf("t=%v id=%d: %d vs %d matches", thr, q.ID, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("t=%v id=%d match %d: %v vs %v", thr, q.ID, i, g[i], w[i])
				}
			}
		}
		g, w := bulk.QueryTopKInto(QueryOf(q), 7, nil), added.QueryTopKInto(QueryOf(q), 7, nil)
		if len(g) != len(w) {
			t.Fatalf("topk id=%d: %d vs %d", q.ID, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("topk id=%d match %d: %v vs %v", q.ID, i, g[i], w[i])
			}
		}
	}

	// Mutations after a bulk load go through the normal paths.
	bulk.Add(multiset.New(1000, []multiset.Entry{{Elem: 1, Count: 2}}))
	added.Add(multiset.New(1000, []multiset.Entry{{Elem: 1, Count: 2}}))
	if !bulk.Remove(sets[0].ID) || !added.Remove(sets[0].ID) {
		t.Fatal("remove after bulk load")
	}
	g := bulk.QueryThresholdInto(QueryOf(sets[1]), 0, nil)
	w := added.QueryThresholdInto(QueryOf(sets[1]), 0, nil)
	if len(g) != len(w) {
		t.Fatalf("after churn: %d vs %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("after churn match %d: %v vs %v", i, g[i], w[i])
		}
	}
}

// TestBulkLoadGappedElements: a directory indexed by element ID has
// empty slots between the elements used; BulkLoad's repack skips them,
// and the loaded index answers like the same Adds — queries naming a gap
// or an element past the end included.
func TestBulkLoadGappedElements(t *testing.T) {
	elems := []multiset.Elem{0, 5, 1000}
	var sets []multiset.Multiset
	for i := range 12 {
		entries := []multiset.Entry{{Elem: elems[i%3], Count: uint32(1 + i%4)}}
		if i%2 == 0 {
			entries = append(entries, multiset.Entry{Elem: elems[(i+1)%3], Count: 2})
		}
		sets = append(sets, multiset.New(multiset.ID(i+1), entries))
	}
	m := similarity.Ruzicka{}
	added := buildIndex(m, sets)
	bulk := New(m)
	if err := bulk.BulkLoad(cloneSets(sets)); err != nil {
		t.Fatal(err)
	}
	if g, w := bulk.Stats(), added.Stats(); g.Elements != 3 || w.Elements != 3 || g.Postings != w.Postings {
		t.Fatalf("bulk stats %+v, added stats %+v; want 3 elements each and equal postings", g, w)
	}
	queries := []multiset.Multiset{
		multiset.New(0, []multiset.Entry{{Elem: 0, Count: 1}, {Elem: 5, Count: 2}, {Elem: 1000, Count: 3}}),
		multiset.New(0, []multiset.Entry{{Elem: 3, Count: 1}, {Elem: 1000, Count: 1}, {Elem: 4000, Count: 2}}),
		multiset.New(0, []multiset.Entry{{Elem: 999, Count: 1}}),
	}
	for _, q := range append(queries, sets...) {
		for _, thr := range []float64{0, 0.5} {
			g := bulk.QueryThresholdInto(QueryOf(q), thr, nil)
			w := added.QueryThresholdInto(QueryOf(q), thr, nil)
			if !slices.Equal(g, w) {
				t.Fatalf("query %v t=%v: bulk %v, added %v", q, thr, g, w)
			}
		}
		if g, w := bulk.QueryTopKInto(QueryOf(q), 4, nil), added.QueryTopKInto(QueryOf(q), 4, nil); !slices.Equal(g, w) {
			t.Fatalf("query %v top-4: bulk %v, added %v", q, g, w)
		}
	}
	if got := bulk.QueryThresholdInto(QueryOf(queries[2]), 0, nil); len(got) != 0 {
		t.Fatalf("a query on a gap matched %v", got)
	}
}

// TestStatsElementsFollowCompaction: Stats.Elements counts the elements
// with a posting list, so it drops when compaction purges an element's
// last posting and counts the element again when an entity re-adds it.
func TestStatsElementsFollowCompaction(t *testing.T) {
	ix := New(similarity.Ruzicka{})
	ix.Add(multiset.FromSet(1, []multiset.Elem{1, 2, 3}))
	ix.Add(multiset.FromSet(2, []multiset.Elem{3}))
	if s := ix.Stats(); s.Elements != 3 {
		t.Fatalf("before remove: %+v", s)
	}
	ix.Remove(1) // 3 dead postings against 1 live: compaction runs
	if s := ix.Stats(); s.Compactions != 1 || s.Elements != 1 || s.Postings != 1 {
		t.Fatalf("after compaction: %+v, want 1 compaction, 1 element, 1 posting", s)
	}
	ix.Add(multiset.FromSet(3, []multiset.Elem{1}))
	if s := ix.Stats(); s.Elements != 2 {
		t.Fatalf("after re-add: %+v, want 2 elements", s)
	}
	if got := ix.QueryThresholdInto(QueryOf(multiset.FromSet(0, []multiset.Elem{1})), 0.9, nil); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("re-added element: %v", got)
	}
}

func cloneSets(sets []multiset.Multiset) []multiset.Multiset {
	out := make([]multiset.Multiset, len(sets))
	copy(out, sets)
	return out
}

func TestBulkLoadSealed(t *testing.T) {
	m := similarity.Ruzicka{}
	one := []multiset.Multiset{multiset.New(1, []multiset.Entry{{Elem: 1, Count: 1}})}
	ix := New(m)
	if err := ix.BulkLoad(one); err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad(one); err == nil {
		t.Fatal("bulk load into a non-empty index accepted")
	}

	if err := New(m).BulkLoad([]multiset.Multiset{
		multiset.New(2, nil), multiset.New(2, nil),
	}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if err := New(m).BulkLoad([]multiset.Multiset{
		multiset.New(3, nil), multiset.New(2, nil),
	}); err == nil {
		t.Fatal("descending IDs accepted")
	}
	if err := New(m).BulkLoad([]multiset.Multiset{multiset.New(0, nil)}); err == nil {
		t.Fatal("ID 0 accepted")
	}
}
