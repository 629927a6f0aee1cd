package vsmartjoin

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// mustAdd and mustRemove check the mutation errors the durability
// contract requires handling even in tests: an ignored Add error means
// the test asserts nothing about the write it thinks it made.
func mustAdd(t testing.TB, ix *Index, name string, counts map[string]uint32) {
	t.Helper()
	if err := ix.Add(name, counts); err != nil {
		t.Fatalf("Add(%s): %v", name, err)
	}
}

func mustRemove(t testing.TB, ix *Index, name string) {
	t.Helper()
	if _, err := ix.Remove(name); err != nil {
		t.Fatalf("Remove(%s): %v", name, err)
	}
}

func TestIndexQuickstart(t *testing.T) {
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ix, "ip-1", map[string]uint32{"a": 3, "b": 1, "c": 2})
	mustAdd(t, ix, "ip-2", map[string]uint32{"a": 2, "b": 2, "c": 2})
	mustAdd(t, ix, "ip-3", map[string]uint32{"z": 9, "y": 4})
	if ix.Len() != 3 {
		t.Fatalf("len: %d", ix.Len())
	}
	got, err := ix.QueryThreshold(map[string]uint32{"a": 3, "b": 1, "c": 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Entity != "ip-1" || got[0].Similarity != 1 || got[1].Entity != "ip-2" {
		t.Fatalf("matches: %v", got)
	}
	// Unknown query elements dilute the similarity but never error.
	diluted, err := ix.QueryThreshold(map[string]uint32{"a": 3, "never-seen": 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range diluted {
		if m.Similarity >= got[1].Similarity {
			t.Fatalf("unknown mass did not dilute: %v", diluted)
		}
	}
}

func TestIndexQueryEntity(t *testing.T) {
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ix, "a", map[string]uint32{"x": 2, "y": 2})
	mustAdd(t, ix, "b", map[string]uint32{"x": 2, "y": 2})
	got, err := ix.QueryEntity("a", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entity != "b" || got[0].Similarity != 1 {
		t.Fatalf("matches: %v", got)
	}
	if _, err := ix.QueryEntity("missing", 0.5); err == nil {
		t.Fatal("missing entity should error")
	}
}

func TestIndexUpsertAndRemove(t *testing.T) {
	ix, err := NewIndex(IndexOptions{Measure: "jaccard"})
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ix, "doc", map[string]uint32{"w1": 1, "w2": 1})
	mustAdd(t, ix, "doc", map[string]uint32{"w9": 1}) // replace, not merge
	got, err := ix.QueryThreshold(map[string]uint32{"w1": 1, "w2": 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("old contents still match: %v", got)
	}
	got, err = ix.QueryThreshold(map[string]uint32{"w9": 1}, 0.9)
	if err != nil || len(got) != 1 || got[0].Entity != "doc" {
		t.Fatalf("new contents: %v %v", got, err)
	}
	if removed, err := ix.Remove("doc"); err != nil || !removed {
		t.Fatalf("remove: %v %v", removed, err)
	}
	if removed, err := ix.Remove("doc"); err != nil || removed {
		t.Fatalf("re-remove: %v %v", removed, err)
	}
	if ix.Len() != 0 {
		t.Fatalf("len after remove: %d", ix.Len())
	}
}

func TestIndexTopK(t *testing.T) {
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ix, "near", map[string]uint32{"a": 4, "b": 4})
	mustAdd(t, ix, "mid", map[string]uint32{"a": 4, "c": 4})
	mustAdd(t, ix, "far", map[string]uint32{"a": 1, "z": 9})
	got := ix.QueryTopK(map[string]uint32{"a": 4, "b": 4}, 2)
	if len(got) != 2 || got[0].Entity != "near" || got[1].Entity != "mid" {
		t.Fatalf("topk: %v", got)
	}
	if got[0].Similarity != 1 || got[1].Similarity >= got[0].Similarity {
		t.Fatalf("topk order: %v", got)
	}
}

func TestBuildIndexFromDataset(t *testing.T) {
	d := demoDataset()
	ix, err := BuildIndex(d, IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != d.Len() {
		t.Fatalf("len: %d vs %d", ix.Len(), d.Len())
	}
	got, err := ix.QueryEntity("ip-1", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entity != "ip-2" {
		t.Fatalf("matches: %v", got)
	}

	// Numbered datasets load too, with synthesized names.
	n := NewDataset()
	n.AddByID(10, map[uint64]uint32{1: 1, 2: 1})
	n.AddByID(20, map[uint64]uint32{1: 1, 2: 1})
	nx, err := BuildIndex(n, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := nx.QueryEntity("10", 0.9)
	if err != nil || len(nm) != 1 || nm[0].Entity != "20" {
		t.Fatalf("numbered: %v %v", nm, err)
	}

	// The empty string is a legitimate element name and must survive the
	// round trip through BuildIndex's name translation.
	e := NewDataset()
	e.Add("p", map[string]uint32{"": 2})
	e.Add("q", map[string]uint32{"": 2})
	ex, err := BuildIndex(e, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	em, err := ex.QueryThreshold(map[string]uint32{"": 2}, 0.9)
	if err != nil || len(em) != 2 {
		t.Fatalf("empty-string element: %v %v", em, err)
	}

	// A durable load is one WAL write per chunk of applyChunk entities,
	// and logs exactly what one Add per entity logs — so the same IDs.
	big := NewDataset()
	for i := 0; i < 2*applyChunk+9; i++ {
		big.Add(fmt.Sprintf("e%04d", i), map[string]uint32{"a": uint32(i%7 + 1), fmt.Sprint("b", i%5): 2})
	}
	opts := IndexOptions{Dir: t.TempDir(), SnapshotEvery: -1}
	chunked, err := BuildIndex(big, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer chunked.Close()
	single, err := NewIndex(IndexOptions{Dir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	big.Each(func(entity string, counts map[string]uint32) bool {
		mustAdd(t, single, entity, counts)
		return true
	})
	if got := chunked.Metrics().WALAppend.Count; got != 3 || single.Metrics().WALAppend.Count != uint64(big.Len()) {
		t.Fatalf("WAL appends: %d chunked, want 3; %d one by one, want %d", got, single.Metrics().WALAppend.Count, big.Len())
	}
	var logs [2][]byte
	for i, ix := range []*Index{chunked, single} {
		if logs[i], err = os.ReadFile(filepath.Join(ix.log.Dir(), ix.log.Files()[1])); err != nil { // [snap, wal]
			t.Fatal(err)
		}
	}
	if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("chunked load logged %d bytes, one Add per entity %d, and they differ", len(logs[0]), len(logs[1]))
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex(IndexOptions{Measure: "nope"}); err == nil {
		t.Fatal("unknown measure should fail")
	}
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := ix.QueryThreshold(map[string]uint32{"a": 1}, bad); err == nil {
			t.Fatalf("threshold %v should fail", bad)
		}
		if _, err := ix.QueryEntity("a", bad); err == nil {
			t.Fatalf("entity threshold %v should fail", bad)
		}
	}
}

func TestIndexStatsSnapshot(t *testing.T) {
	ix, err := NewIndex(IndexOptions{Measure: "dice"})
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ix, "a", map[string]uint32{"x": 1, "y": 2})
	mustAdd(t, ix, "b", map[string]uint32{"x": 3})
	if _, err := ix.QueryThreshold(map[string]uint32{"x": 1}, 0.1); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Measure != "dice" || s.Entities != 2 || s.Elements != 2 || s.Adds != 2 || s.Queries != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestIndexAddRemoveRace hammers Add/Remove of the same name from many
// goroutines: the name tables and the inner index must mutate as an
// atomic pair, or interleavings leave nameless ghost entities behind
// (Len never returns to 0 and queries verify entities that resolve to
// nothing).
func TestIndexAddRemoveRace(t *testing.T) {
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				// t.Fatal is off-limits in a non-test goroutine.
				if err := ix.Add("x", map[string]uint32{"a": 1}); err != nil {
					t.Error(err)
				}
				if _, err := ix.Remove("x"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	mustRemove(t, ix, "x")
	if n := ix.Len(); n != 0 {
		t.Fatalf("ghost entities after churn: %d", n)
	}
}

// TestIndexConcurrentUse is the public-API race gate: names, dict, and
// inner index all churn while queries run.
func TestIndexConcurrentUse(t *testing.T) {
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	elems := []string{"a", "b", "c", "d", "e", "f"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				name := string(rune('w' + g%2))
				counts := map[string]uint32{
					elems[(g+i)%len(elems)]:   uint32(i%5 + 1),
					elems[(g+i+1)%len(elems)]: 1,
				}
				switch i % 4 {
				case 0, 1:
					if err := ix.Add(name+elems[i%len(elems)], counts); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := ix.QueryThreshold(counts, 0.3); err != nil {
						t.Error(err)
					}
					ix.QueryTopK(counts, 3)
				case 3:
					if _, err := ix.Remove(name + elems[i%len(elems)]); err != nil {
						t.Error(err)
					}
					ix.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEntityQueryDoesNotCopyTheEntity is the allocation gate on the
// entity form of a query: it probes with the index's own immutable
// entries, so asking about an entity of 4 000 elements allocates what
// asking about one of 4 does — nothing at all when, as here, neither has
// a neighbor to report. (A copy of the entity per query was 64 KB a call
// for the large one.)
func TestEntityQueryDoesNotCopyTheEntity(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka", CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"small": 4, "large": 4000} {
		counts := make(map[string]uint32, n)
		for i := 0; i < n; i++ {
			counts[fmt.Sprintf("%s-%d", name, i)] = uint32(i%3 + 1)
		}
		mustAdd(t, ix, name, counts)
	}
	measure := func(entity string) float64 {
		return testing.AllocsPerRun(100, func() {
			if ms, err := ix.QueryEntity(entity, 0.5); err != nil || len(ms) != 0 {
				t.Fatalf("QueryEntity(%s) = %v, %v", entity, ms, err)
			}
		})
	}
	small, large := measure("small"), measure("large")
	if small != 0 || large != small {
		t.Fatalf("entity queries allocate %v/op (4 elements) and %v/op (4000 elements), want 0 and 0", small, large)
	}
}

// TestElementQueryAllocs is the allocation gate on the uncached element
// form of a query: the interned query's entry slice and the result list,
// nothing else — no copy of the entries to normalize them, and no
// reflection-built sort swapper (sort.Slice allocated three times a query).
func TestElementQueryAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka", CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	entities := benchIndexEntities(2000)
	for i, counts := range entities {
		mustAdd(t, ix, fmt.Sprintf("entity-%d", i), counts)
	}
	q := map[string]uint32{"never-indexed": 2}
	for elem, c := range entities[5] {
		if len(q) < 9 {
			q[elem] = c
		}
	}
	threshold := testing.AllocsPerRun(100, func() {
		if ms, err := ix.QueryThreshold(q, 0.3); err != nil || len(ms) == 0 {
			t.Fatalf("QueryThreshold = %v, %v", ms, err)
		}
	})
	topk := testing.AllocsPerRun(100, func() { ix.QueryTopK(q, 10) })
	if threshold != 2 || topk != 2 {
		t.Fatalf("a 9-element query allocates %v/op (threshold) and %v/op (top-k), want 2", threshold, topk)
	}
}

// TestElementsUnderChurn: Elements and the entity form of a query read
// the name and its multiset in one hold of the name-table lock, so a
// name removed and re-added between two steps of the read can neither
// come back present but empty nor probe with a dead ID. One goroutine
// churns "e" while the test reads it: every Elements answer is absent or
// exactly e's elements, and every entity query that finds "e" finds
// "twin", which holds the same elements, at similarity 1 (a dead ID
// probes with an empty multiset and finds nothing).
func TestElementsUnderChurn(t *testing.T) {
	ix, err := NewIndex(IndexOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint32{"x": 1, "y": 2}
	mustAdd(t, ix, "e", want)
	mustAdd(t, ix, "twin", want)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := ix.Remove("e"); err != nil {
				t.Error(err)
				return
			}
			if err := ix.Add("e", want); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(done)
	reads := 2_000_000
	if raceDetector {
		reads = 400_000
	}
	for i := 0; i < reads; i++ {
		if got, ok := ix.Elements("e"); ok && !maps.Equal(got, want) {
			t.Fatalf("read %d: Elements(e) = %v, want %v or absent", i, got, want)
		}
		if i%8 != 0 {
			continue
		}
		if ms, err := ix.QueryEntity("e", 0.5); err == nil && !slices.Contains(ms, Match{Entity: "twin", Similarity: 1}) {
			t.Fatalf("read %d: QueryEntity(e) = %v, want twin at 1 among them", i, ms)
		}
	}
}
