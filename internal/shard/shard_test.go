package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vsmartjoin/internal/index"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// randomSets synthesizes clustered multisets so every threshold bucket
// is populated (same shape as the api-level differential datasets).
func randomSets(rng *rand.Rand, n, alphabet, maxLen, maxCount int) []multiset.Multiset {
	out := make([]multiset.Multiset, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		entries := make([]multiset.Entry, 0, l)
		base := rng.Intn(alphabet)
		for j := 0; j < l; j++ {
			var elem int
			if j%2 == 0 {
				elem = (base + rng.Intn(4)) % alphabet
			} else {
				elem = rng.Intn(alphabet)
			}
			entries = append(entries, multiset.Entry{Elem: multiset.Elem(elem), Count: uint32(1 + rng.Intn(maxCount))})
		}
		out[i] = multiset.New(multiset.ID(i+1), entries)
	}
	return out
}

func sameMatches(t *testing.T, tag string, got, want []index.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, single index %d\ngot  %v\nwant %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d: got %v want %v", tag, i, got[i], want[i])
		}
	}
}

// TestDifferentialVsSingleIndex is the core exactness gate: for shard
// counts {1, 3, 8}, every threshold and top-k query must return exactly
// the single-index answer — same matches, same scores, same order.
func TestDifferentialVsSingleIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, measureName := range []string{"ruzicka", "jaccard", "cosine"} {
		m, err := similarity.ByName(measureName)
		if err != nil {
			t.Fatal(err)
		}
		sets := randomSets(rng, 60, 32, 9, 4)
		single := index.New(m)
		for _, s := range sets {
			single.Add(s)
		}
		for _, shards := range []int{1, 3, 8} {
			set := New(m, shards)
			for _, s := range sets {
				set.Add(s)
			}
			if set.Len() != single.Len() {
				t.Fatalf("%s/%d: len %d vs %d", measureName, shards, set.Len(), single.Len())
			}
			for qi, q := range sets {
				query := index.QueryOf(q)
				for _, thr := range []float64{0, 0.3, 0.5, 0.9} {
					tag := fmt.Sprintf("%s/shards=%d/q=%d/t=%v", measureName, shards, qi, thr)
					sameMatches(t, tag, set.QueryThresholdInto(query, thr, nil), single.QueryThresholdInto(query, thr, nil))
				}
				for _, k := range []int{1, 5, 100} {
					tag := fmt.Sprintf("%s/shards=%d/q=%d/k=%d", measureName, shards, qi, k)
					sameMatches(t, tag, set.QueryTopKInto(query, k, nil), single.QueryTopKInto(query, k, nil))
				}
			}
		}
	}
}

// TestDifferentialAfterChurn repeats the comparison after removals and
// upserts: routing must stay consistent so upserts land on the shard
// holding the old version.
func TestDifferentialAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	m, err := similarity.ByName("ruzicka")
	if err != nil {
		t.Fatal(err)
	}
	sets := randomSets(rng, 50, 28, 8, 3)
	single := index.New(m)
	set := New(m, 5)
	for _, s := range sets {
		single.Add(s)
		set.Add(s)
	}
	for i, s := range sets {
		switch i % 3 {
		case 0:
			if set.Remove(s.ID) != single.Remove(s.ID) {
				t.Fatalf("remove %d disagreed", s.ID)
			}
		case 1:
			fresh := randomSets(rng, 1, 28, 8, 3)[0]
			fresh.ID = s.ID
			single.Add(fresh)
			set.Add(fresh)
		}
	}
	if set.Len() != single.Len() {
		t.Fatalf("len after churn: %d vs %d", set.Len(), single.Len())
	}
	for qi, q := range sets {
		query := index.QueryOf(q)
		tag := fmt.Sprintf("churn/q=%d", qi)
		sameMatches(t, tag, set.QueryThresholdInto(query, 0.3, nil), single.QueryThresholdInto(query, 0.3, nil))
		sameMatches(t, tag, set.QueryTopKInto(query, 7, nil), single.QueryTopKInto(query, 7, nil))
	}
	// Removing an already-removed ID stays a no-op everywhere.
	if set.Remove(sets[0].ID) {
		t.Fatal("double remove reported true")
	}
}

// TestConcurrentQueriesAndWriters hammers mutations and queries
// together: every query walks all eight shards on its own goroutine,
// taking each shard's read lock in turn while writers take them one at
// a time. Run under -race this is the locking gate for the sharded path.
func TestConcurrentQueriesAndWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	m, _ := similarity.ByName("ruzicka")
	set := New(m, 8)
	sets := randomSets(rng, 64, 24, 8, 3)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []index.Match
			for i := 0; i < 120; i++ {
				s := sets[(g*17+i)%len(sets)]
				switch i % 4 {
				case 0, 1:
					set.Add(s)
				case 2:
					buf = set.QueryThresholdInto(index.QueryOf(s), 0.3, buf[:0])
					buf = set.QueryTopKInto(index.QueryOf(s), 5, buf[:0])
				case 3:
					set.Remove(s.ID)
					set.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}

// bruteForce is the exhaustive oracle over a corpus: every entity other
// than the query sharing an element with it, scored by similarity.Exact,
// in the canonical order — cut at threshold t when k < 0, to the k best
// otherwise.
func bruteForce(m similarity.Measure, sets []multiset.Multiset, q multiset.Multiset, t float64, k int) []index.Match {
	var out []index.Match
	for _, e := range sets {
		if e.ID == q.ID || similarity.ConjOf(q, e).Common == 0 {
			continue
		}
		if sim := similarity.Exact(m, q, e); k >= 0 || sim+1e-12 >= t {
			out = append(out, index.Match{ID: e.ID, Sim: sim})
		}
	}
	index.SortMatches(out)
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestCarriedFloorAcrossShards gates the one-pass top-k: the heap a query
// carries from shard to shard must end as the global top-k under the
// canonical order even when the k-th rank is a tie group straddling
// shards — equal multisets under different IDs, which route to different
// shards, so a later shard keeps offering candidates AT the floor and
// only the ID decides. Shard counts {1, 2, 3, 8} must answer exactly as
// one index.Index and as the brute-force oracle, for thresholds and for
// k from 1 to beyond the corpus, and again after the tied entities were
// removed and re-added (tombstoned postings, recycled mark-table slots).
func TestCarriedFloorAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	bases := randomSets(rng, 6, 12, 6, 3)
	var sets []multiset.Multiset
	for copyNo := 0; copyNo < 9; copyNo++ { // 9 IDs per distinct multiset
		for _, b := range bases {
			sets = append(sets, multiset.Multiset{ID: multiset.ID(len(sets) + 1), Entries: b.Entries})
		}
	}
	for _, s := range randomSets(rng, 20, 12, 6, 3) { // and some untied noise
		s.ID = multiset.ID(len(sets) + 1)
		sets = append(sets, s)
	}
	for _, measureName := range []string{"ruzicka", "jaccard", "cosine"} {
		m, err := similarity.ByName(measureName)
		if err != nil {
			t.Fatal(err)
		}
		single := index.New(m)
		for _, s := range sets {
			single.Add(s)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			set := New(m, shards)
			for _, s := range sets {
				set.Add(s)
			}
			compare := func(phase string) {
				t.Helper()
				for _, q := range sets[:len(bases)+3] {
					query := index.QueryOf(q)
					for _, thr := range []float64{0, 0.5, 1} {
						tag := fmt.Sprintf("%s/%s/shards=%d/q=%d/t=%v", phase, measureName, shards, q.ID, thr)
						got := set.QueryThresholdInto(query, thr, nil)
						sameMatches(t, tag, got, single.QueryThresholdInto(query, thr, nil))
						sameMatches(t, tag+"/oracle", got, bruteForce(m, sets, q, thr, -1))
					}
					for _, k := range []int{1, 5, 50, set.Len() + 7} {
						tag := fmt.Sprintf("%s/%s/shards=%d/q=%d/k=%d", phase, measureName, shards, q.ID, k)
						got := set.QueryTopKInto(query, k, nil)
						sameMatches(t, tag, got, single.QueryTopKInto(query, k, nil))
						sameMatches(t, tag+"/oracle", got, bruteForce(m, sets, q, 0, k))
					}
				}
			}
			compare("fresh")
			// Remove every tied entity, let other entities take the freed
			// slots, then bring the tied ones back.
			tied := sets[:9*len(bases)]
			for _, s := range tied {
				set.Remove(s.ID)
			}
			for _, s := range sets[9*len(bases):] {
				set.Add(s)
			}
			for _, s := range tied {
				set.Add(s)
			}
			compare("re-added")
		}
	}
}

// TestPartialFloorAcrossShards gates the top-k floor that rises inside a
// partition, the k-th best of the carried heap's similarities and the
// admitted candidates' partial ones, on the stop-word-light shape: every
// entity carries a stop word at count 1, the query's lightest element,
// probed last. Tie groups of equal multisets straddle the shards — copies
// of corpus entities, and entities holding the stop word alone — and k is
// put inside every tie group the oracle's ranking shows, so the floor
// sits exactly on a tie whose smaller IDs a later shard still holds. The
// ad-hoc queries have cardinality 24 and 48, where the cosine bounds of a
// stop-word-only entity round one ulp below its similarity: a floor
// raised by as little as boundEps cuts those entities off. Shard counts
// {1, 3, 8} must answer as one index and as the brute-force oracle.
func TestPartialFloorAcrossShards(t *testing.T) {
	const n, stop = 300, multiset.Elem(300 + 64)
	var sets []multiset.Multiset
	for i := 0; i < n; i++ {
		entries := []multiset.Entry{{Elem: stop, Count: 1}}
		for j := 0; j < 12; j++ {
			entries = append(entries, multiset.Entry{Elem: multiset.Elem((i*31 + j*j*7) % (n/2 + 64)), Count: uint32(j%5 + 1)})
		}
		sets = append(sets, multiset.New(multiset.ID(len(sets)+1), entries))
	}
	bases := sets[:4]
	for copyNo := 0; copyNo < 8; copyNo++ {
		for _, b := range bases {
			sets = append(sets, multiset.Multiset{ID: multiset.ID(len(sets) + 1), Entries: b.Entries})
		}
		sets = append(sets, multiset.Multiset{ID: multiset.ID(len(sets) + 1), Entries: []multiset.Entry{{Elem: stop, Count: 1}}})
	}
	queries := append([]multiset.Multiset{}, bases...)
	for _, card := range []uint32{24, 48} {
		for _, b := range bases {
			entries, left := []multiset.Entry{{Elem: stop, Count: 1}}, card-1
			for _, e := range b.Entries {
				if c := min(left, 5); e.Elem != stop && c > 0 {
					entries = append(entries, multiset.Entry{Elem: e.Elem, Count: c})
					left -= c
				}
			}
			if left != 0 {
				t.Fatalf("base %v cannot make a query of cardinality %d", b, card)
			}
			queries = append(queries, multiset.New(0, entries))
		}
	}
	for _, measureName := range []string{"ruzicka", "jaccard", "cosine"} {
		m, err := similarity.ByName(measureName)
		if err != nil {
			t.Fatal(err)
		}
		single := index.New(m)
		for _, s := range sets {
			single.Add(s)
		}
		for _, shards := range []int{1, 3, 8} {
			set := New(m, shards)
			for _, s := range sets {
				set.Add(s)
			}
			for _, q := range queries {
				ranked := bruteForce(m, sets, q, 0, len(sets))
				ks := []int{1, 10}
				for a := 0; a < len(ranked); {
					b := a + 1
					for b < len(ranked) && ranked[b].Sim == ranked[a].Sim {
						b++
					}
					if b-a > 1 {
						ks = append(ks, (a+b)/2) // ranks k-1 and k both in the group
					}
					a = b
				}
				query := index.QueryOf(q)
				for _, k := range ks {
					tag := fmt.Sprintf("%s/shards=%d/q=%v/k=%d", measureName, shards, q, k)
					got := set.QueryTopKInto(query, k, nil)
					sameMatches(t, tag, got, single.QueryTopKInto(query, k, nil))
					sameMatches(t, tag+"/oracle", got, ranked[:min(k, len(ranked))])
				}
			}
		}
	}
}

// TestQueriesDoNotAllocate is the allocation gate of the one-pass query:
// with a warm pass pool and a reused result buffer, a Set of 2 and of 8
// shards answers threshold and top-k queries at 0 allocs/op — no
// goroutine, no per-shard result list, no merge heap.
func TestQueriesDoNotAllocate(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	rng := rand.New(rand.NewSource(107))
	m, _ := similarity.ByName("ruzicka")
	sets := randomSets(rng, 400, 64, 10, 4)
	for _, shards := range []int{2, 8} {
		set := New(m, shards)
		for _, s := range sets {
			set.Add(s)
		}
		var buf []index.Match
		i := 0
		next := func() index.Query { i++; return index.QueryOf(sets[i%len(sets)]) }
		for range sets { // warm the pooled pass and the buffer
			buf = set.QueryThresholdInto(next(), 0, buf[:0])
		}
		if n := testing.AllocsPerRun(200, func() { buf = set.QueryThresholdInto(next(), 0.3, buf[:0]) }); n != 0 {
			t.Fatalf("shards=%d: threshold query allocates %v/op, want 0", shards, n)
		}
		if n := testing.AllocsPerRun(200, func() { buf = set.QueryTopKInto(next(), 10, buf[:0]) }); n != 0 {
			t.Fatalf("shards=%d: top-k query allocates %v/op, want 0", shards, n)
		}
	}
}

// TestShardOfDegenerateWidths pins the routing guard: a zero width used
// to panic with an integer divide by zero, and a negative width wrapped
// through uint64(n) to a mod by a huge modulus — both now route to
// shard 0, matching New's "n < 1 is treated as 1".
func TestShardOfDegenerateWidths(t *testing.T) {
	for _, n := range []int{0, -1, -64, 1} {
		for _, id := range []multiset.ID{0, 1, 42, 1 << 40} {
			if got := ShardOf(id, n); got != 0 {
				t.Fatalf("ShardOf(%d, %d) = %d, want 0", id, n, got)
			}
		}
	}
	// Sane widths stay in range and deterministic.
	for _, n := range []int{2, 7, 64} {
		for id := multiset.ID(1); id <= 200; id++ {
			got := ShardOf(id, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, got)
			}
			if again := ShardOf(id, n); again != got {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", id, n, got, again)
			}
		}
	}
}
