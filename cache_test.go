package vsmartjoin

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func cacheTestIndex(t *testing.T, opts IndexOptions) *Index {
	t.Helper()
	ix, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		counts := map[string]uint32{
			fmt.Sprintf("e%d", i%7):     2,
			fmt.Sprintf("e%d", (i+1)%7): 1,
			"shared":                    3,
		}
		if err := ix.Add(fmt.Sprintf("entity-%d", i), counts); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestCacheHitReturnsIdenticalResults(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "e1": 1, "shared": 3}

	first, err := ix.QueryThreshold(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.CacheMisses == 0 {
		t.Fatalf("first query should miss, stats %+v", st)
	}
	if st.CacheHits != 0 {
		t.Fatalf("no hit expected yet, stats %+v", st)
	}
	// The key's second miss stores its answer.
	if _, err := ix.QueryThreshold(q, 0.4); err != nil {
		t.Fatal(err)
	}

	second, err := ix.QueryThreshold(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached answer diverged:\nfirst  %v\nsecond %v", first, second)
	}
	if st := ix.Stats(); st.CacheHits != 1 {
		t.Fatalf("second identical query should hit, stats %+v", st)
	}

	// A map holding the same multiset plus zero-count noise is the same
	// canonical query, so it must hit the same entry.
	noisy := map[string]uint32{"shared": 3, "e1": 1, "e0": 2, "ignored": 0}
	third, err := ix.QueryThreshold(noisy, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("canonicalized query diverged: %v vs %v", first, third)
	}
	if st := ix.Stats(); st.CacheHits != 2 {
		t.Fatalf("canonicalized re-query should hit, stats %+v", st)
	}

	// Different parameters are different keys.
	if _, err := ix.QueryThreshold(q, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheHits != 2 {
		t.Fatalf("different threshold must not hit, stats %+v", st)
	}
}

// TestCacheAdmitsOnSecondMiss: a key's first miss stores nothing but
// its fingerprint, its second stores the answer, and the third query
// hits it.
func TestCacheAdmitsOnSecondMiss(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "e1": 1, "shared": 3}
	want, err := ix.QueryThreshold(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheMisses != 1 || st.CacheEntries != 0 {
		t.Fatalf("the first miss must store nothing, stats %+v", st)
	}
	if _, err := ix.QueryThreshold(q, 0.4); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 1 {
		t.Fatalf("the second miss must store the answer, stats %+v", st)
	}
	got, err := ix.QueryThreshold(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheHits != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("the third query = %v (stats %+v), want a hit on %v", got, st, want)
	}
}

// TestCacheOneOffQueriesStoreNothing: queries asked once each store no
// answer, even in a stream twice as long as the doorkeeper has slots.
func TestCacheOneOffQueriesStoreNothing(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "e1": 1, "shared": 3}
	n := 2 * len(ix.cache.seen)
	for i := range n {
		if _, err := ix.QueryThreshold(q, float64(i)/float64(n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := ix.Stats(); st.CacheMisses != int64(n) || st.CacheEntries != 0 {
		t.Fatalf("%d one-off queries: stats %+v, want %d misses and no entry", n, st, n)
	}
}

// TestCacheChurnMatchesUncachedTwin: readers repeat a few queries while
// a writer steps the index through a script of Adds and Removes, so
// answers are admitted, hit, invalidated and filled by queries racing a
// write throughout. A query no write overlapped read one state, so its
// answer must equal a cache-off twin's at that state; one that
// overlapped a write is not checked, since a read is not a snapshot
// (resolve drops a match removed while the probe ran) and the cache may
// only make it a false miss later. The writer counts the steps it has
// started and finished; a reader that sees both equal before its query
// and no new start after it was not overlapped.
func TestCacheChurnMatchesUncachedTwin(t *testing.T) {
	ctx := context.Background()
	queries := []Query{
		{Elements: map[string]uint32{"e0": 2, "shared": 3, "churn": 1}, Threshold: 0.2},
		{Elements: map[string]uint32{"e1": 1, "e2": 2, "churn": 2}, Kind: KindTopK, K: 5},
		{Entity: "entity-3", Kind: KindKNN, K: 4},
	}
	const steps = 60
	step := func(ix *Index, s int) error {
		if s%3 == 2 {
			_, err := ix.Remove(fmt.Sprintf("churn-%d", s-2))
			return err
		}
		return ix.Add(fmt.Sprintf("churn-%d", s), map[string]uint32{fmt.Sprintf("e%d", s%7): uint32(1 + s%3), "churn": 1})
	}
	// oracle[s][i] is the twin's answer to queries[i] after s steps.
	twin := cacheTestIndex(t, IndexOptions{CacheSize: -1})
	oracle := make([][]QueryResult, steps+1)
	for s := range oracle {
		if s > 0 {
			if err := step(twin, s-1); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			res, err := twin.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			oracle[s] = append(oracle[s], res)
		}
	}

	ix := cacheTestIndex(t, IndexOptions{})
	var started, done, checked atomic.Int64
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; done.Load() < steps; i++ {
				qi := i % len(queries)
				s0, d0 := started.Load(), done.Load()
				got, err := ix.Query(ctx, queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if s0 != d0 || started.Load() != s0 {
					continue // a write overlapped the query
				}
				if !reflect.DeepEqual(got, oracle[d0][qi]) {
					t.Errorf("query %d after step %d = %v, want the twin's %v", qi, d0, got, oracle[d0][qi])
					return
				}
				checked.Add(1)
			}
		}()
	}
	for s := range steps {
		// Let every query repeat a few times between two writes.
		for checked.Load() < int64(12*(s+1)) && !t.Failed() {
			runtime.Gosched()
		}
		started.Store(int64(s + 1))
		if err := step(ix, s); err != nil {
			t.Error(err)
		}
		done.Store(int64(s + 1))
	}
	wg.Wait()
	if st := ix.Stats(); st.CacheHits == 0 {
		t.Fatalf("no answer was served from the cache under churn: %+v", st)
	}
}

func TestCacheInvalidatedByMutations(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "e1": 1, "shared": 3}

	before, err := ix.QueryThreshold(q, 0.0)
	if err != nil {
		t.Fatal(err)
	}

	// An add must invalidate: the new entity shares elements with the
	// query and has to appear in the very next answer.
	if err := ix.Add("late-arrival", q); err != nil {
		t.Fatal(err)
	}
	after, err := ix.QueryThreshold(q, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("add not visible after cached query: %d -> %d results", len(before), len(after))
	}
	found := false
	for _, m := range after {
		if m.Entity == "late-arrival" {
			found = true
		}
	}
	if !found {
		t.Fatalf("late-arrival missing from post-add results %v", after)
	}

	// A remove must invalidate just the same.
	if _, err := ix.Remove("late-arrival"); err != nil {
		t.Fatal(err)
	}
	final, err := ix.QueryThreshold(q, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, final) {
		t.Fatalf("post-remove answer diverged from original:\nwant %v\ngot  %v", before, final)
	}
}

func TestCacheCoversTopKAndEntityQueries(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "e1": 1, "shared": 3}

	first := ix.QueryTopK(q, 5)
	ix.QueryTopK(q, 5) // the second miss stores the answer
	second := ix.QueryTopK(q, 5)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached top-k diverged: %v vs %v", first, second)
	}
	st := ix.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("repeated top-k should hit, stats %+v", st)
	}

	e1, err := ix.QueryEntity("entity-0", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryEntity("entity-0", 0.3); err != nil {
		t.Fatal(err)
	}
	e2, err := ix.QueryEntity("entity-0", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("cached entity query diverged: %v vs %v", e1, e2)
	}
	if st := ix.Stats(); st.CacheHits != 2 {
		t.Fatalf("repeated entity query should hit, stats %+v", st)
	}
}

func TestCacheLRUBound(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{CacheSize: 2})
	queries := []map[string]uint32{
		{"e0": 1}, {"e1": 1}, {"e2": 1},
	}
	for _, q := range queries {
		for range 2 { // the second miss stores the answer
			if _, err := ix.QueryThreshold(q, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := ix.Stats(); st.CacheEntries != 2 {
		t.Fatalf("capacity 2 cache holds %d entries", st.CacheEntries)
	}
	// queries[0] was evicted as least-recently-used; re-querying it must
	// miss, while queries[2] is still resident.
	hitsBefore := ix.Stats().CacheHits
	if _, err := ix.QueryThreshold(queries[2], 0.5); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheHits != hitsBefore+1 {
		t.Fatalf("resident entry should hit, stats %+v", st)
	}
	if _, err := ix.QueryThreshold(queries[0], 0.5); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheHits != hitsBefore+1 {
		t.Fatalf("evicted entry must miss, stats %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{CacheSize: -1})
	q := map[string]uint32{"e0": 2, "shared": 3}
	for i := 0; i < 3; i++ {
		if _, err := ix.QueryThreshold(q, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache reported traffic: %+v", st)
	}
}

func TestCacheHitIsACopy(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "e1": 1, "shared": 3}
	first, err := ix.QueryThreshold(q, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("want results")
	}
	ix.QueryThreshold(q, 0.0) // the second miss stores the answer
	// Mutating a returned slice must not corrupt the cached copy.
	second, _ := ix.QueryThreshold(q, 0.0)
	second[0] = Match{Entity: "vandalized", Similarity: -1}
	third, _ := ix.QueryThreshold(q, 0.0)
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("caller mutation leaked into the cache:\nwant %v\ngot  %v", first, third)
	}
}

// TestCachePutKeepsNewerGeneration: a slow miss stamped with an older
// generation, landing after a fast one of a newer generation, must not
// replace the current answer; nor may a lookup at the older generation
// evict it.
func TestCachePutKeepsNewerGeneration(t *testing.T) {
	c := newQueryCache(4)
	key := []byte("k")
	a := QueryResult{Matches: []Match{{Entity: "a", Similarity: 1}}}
	b := QueryResult{Matches: []Match{{Entity: "b", Similarity: 1}}}
	c.put(key, 5, a) // the first miss leaves only the key's fingerprint
	c.put(key, 5, a)
	c.put(key, 4, b)
	if res, ok := c.get(key, 5); !ok || !reflect.DeepEqual(res, a) {
		t.Fatalf("get at generation 5 = %v, %v; want a hit on %v", res, ok, a)
	}
	if _, ok := c.get(key, 4); ok {
		t.Fatal("generation-4 lookup hit a generation-5 entry")
	}
	if res, ok := c.get(key, 5); !ok || !reflect.DeepEqual(res, a) {
		t.Fatalf("after an older lookup, get at generation 5 = %v, %v; want a hit on %v", res, ok, a)
	}
	c.put(key, 6, b)
	if res, ok := c.get(key, 6); !ok || !reflect.DeepEqual(res, b) {
		t.Fatalf("get at generation 6 = %v, %v; want a hit on %v", res, ok, b)
	}
}

// TestCacheKeysUnknownElementsByCounts: the key is built from the
// interned query, where elements the index has never seen are only
// their counts, so two queries differing only in the names of those
// share one entry — the inner index cannot tell them apart either. The
// second query's miss is its key's second, so it stores the answer the
// third query, the first again, hits.
func TestCacheKeysUnknownElementsByCounts(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	oracle := cacheTestIndex(t, IndexOptions{CacheSize: -1})
	q1 := map[string]uint32{"e0": 2, "shared": 3, "unseen-x": 4, "unseen-y": 1}
	q2 := map[string]uint32{"e0": 2, "shared": 3, "unseen-z": 1, "unseen-w": 4}
	for i, q := range []map[string]uint32{q1, q2, q1} {
		got, err := ix.QueryThreshold(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.QueryThreshold(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: got %v, want %v (uncached)", i+1, got, want)
		}
	}
	if st := ix.Stats(); st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheEntries != 1 {
		t.Fatalf("the second query should store the first's key and the third hit it, stats %+v", st)
	}
}

// TestCacheMissesAfterElementInterned: a query naming an element no
// entity holds is cached with that element as a count; an Add that
// interns it bumps the generation, so the same query misses and its
// answer holds the new entity.
func TestCacheMissesAfterElementInterned(t *testing.T) {
	ix := cacheTestIndex(t, IndexOptions{})
	q := map[string]uint32{"e0": 2, "novel": 5}
	before, err := ix.QueryThreshold(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("newcomer", map[string]uint32{"novel": 5}); err != nil {
		t.Fatal(err)
	}
	misses := ix.Stats().CacheMisses
	after, err := ix.QueryThreshold(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.CacheMisses != misses+1 {
		t.Fatalf("query after the interning Add should miss, stats %+v", st)
	}
	if len(after) != len(before)+1 || !slices.ContainsFunc(after, func(m Match) bool { return m.Entity == "newcomer" }) {
		t.Fatalf("after the Add: %v; want %v plus newcomer", after, before)
	}
}
