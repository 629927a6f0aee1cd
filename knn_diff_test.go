package vsmartjoin

// The kNN differential harness, mirroring api_diff_test.go for the
// distance-ordered query surface: online QueryKNN/QueryKNNEntity and
// batch AllKNN must reproduce a brute-force oracle built on the public
// Similarity function — for every measure family, for k below, at, and
// beyond the corpus size, and after churn. Batch AllKNN lists are also
// gated byte-identical against online QueryKNNEntity — the two pipelines
// answer the same question and must agree to the last bit.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"vsmartjoin/internal/cluster"
)

var knnDiffMeasures = []string{"ruzicka", "jaccard", "dice", "cosine"}

var knnDiffKs = []int{1, 5, 50}

// knnEntities builds the differential corpus: clustered random
// multisets (near-duplicates at every distance), exact duplicates
// (maximal distance ties — the name-order tie-break stress), and a few
// entities with unique elements (distance-1 pad candidates).
func knnEntities(rng *rand.Rand, n int) map[string]map[string]uint32 {
	out := randomEntities(rng, n, 26, 7, 4)
	for i := 0; i < 5; i++ {
		out[fmt.Sprintf("twin-%d", i)] = map[string]uint32{"e1": 3, "e2": 1, "e7": 2}
	}
	out["hermit-a"] = map[string]uint32{"only-a": 4}
	out["hermit-b"] = map[string]uint32{"only-b": 1}
	return out
}

// oracleKNN brute-forces the expected neighbor list: distance
// 1 − Similarity to every entity except self, sorted distance
// ascending with name-ascending ties, truncated to k.
func oracleKNN(t *testing.T, entities map[string]map[string]uint32, measure string, q map[string]uint32, self string, k int) []Neighbor {
	t.Helper()
	out := make([]Neighbor, 0, len(entities))
	for name, counts := range entities {
		if name == self {
			continue
		}
		sim := 0.0
		if sharesElement(q, counts) {
			var err error
			sim, err = Similarity(measure, q, counts)
			if err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, Neighbor{Entity: name, Distance: 1 - sim})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Entity < out[j].Entity
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// mustMatchKNN compares a kNN answer to the oracle: identical entities
// in identical order, distances within the float tolerance the other
// differential harnesses use, and the canonical order holding within
// the answer itself.
func mustMatchKNN(t *testing.T, tag string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Entity != want[i].Entity {
			t.Fatalf("%s: neighbor %d is %q, oracle has %q\n got: %v\nwant: %v", tag, i, got[i].Entity, want[i].Entity, got, want)
		}
		if d := got[i].Distance - want[i].Distance; d < -1e-9 || d > 1e-9 {
			t.Fatalf("%s: neighbor %q distance %v, oracle %v", tag, got[i].Entity, got[i].Distance, want[i].Distance)
		}
	}
	sorted := append([]Neighbor(nil), got...)
	cluster.SortNeighbors(sorted)
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("%s: answer not in canonical order at %d: %v", tag, i, got)
		}
	}
}

// knnProbes is the query battery: the duplicate multiset (maximal
// ties), generic overlaps, a single hot element, out-of-alphabet
// elements, and the empty query (every entity at distance exactly 1).
func knnProbes(entities map[string]map[string]uint32) []map[string]uint32 {
	return []map[string]uint32{
		{"e1": 3, "e2": 1, "e7": 2}, // the twins' multiset
		{"e0": 1, "e1": 2, "e3": 1},
		{"e5": 4},
		{"nowhere": 7, "e2": 1},
		{"fully-unknown": 1},
		{},
	}
}

// TestKNNDifferentialQuery is the online acceptance gate: measures ×
// k {1,5,50} against the oracle, before and after churn.
func TestKNNDifferentialQuery(t *testing.T) {
	for _, measure := range knnDiffMeasures {
		t.Run(measure, func(t *testing.T) {
			runKNNDifferentialQuery(t, measure)
		})
	}
}

func runKNNDifferentialQuery(t *testing.T, measure string) {
	rng := rand.New(rand.NewSource(1012))
	entities := knnEntities(rng, 40)
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Strings(names)

	ix, err := NewIndex(IndexOptions{Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, name := range names {
		mustAdd(t, ix, name, entities[name])
	}

	compare := func(stage string) {
		t.Helper()
		for pi, probe := range knnProbes(entities) {
			for _, k := range knnDiffKs {
				tag := fmt.Sprintf("%s probe %d k=%d", stage, pi, k)
				mustMatchKNN(t, tag, ix.QueryKNN(probe, k), oracleKNN(t, entities, measure, probe, "", k))
			}
		}
		// Entity-relative form: a twin (its own tie group), a hermit (all
		// other entities at distance 1), and a generic entity.
		for _, entity := range []string{"twin-0", "hermit-a", names[7]} {
			if _, ok := entities[entity]; !ok {
				continue // removed by churn
			}
			for _, k := range knnDiffKs {
				got, err := ix.QueryKNNEntity(entity, k)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("%s entity %q k=%d", stage, entity, k)
				mustMatchKNN(t, tag, got, oracleKNN(t, entities, measure, entities[entity], entity, k))
			}
		}
	}
	compare("initial")

	// Churn: remove a third, upsert a third with fresh contents, add a
	// new twin so a tie group crosses every k boundary again.
	for i, name := range names {
		switch i % 3 {
		case 0:
			mustRemove(t, ix, name)
			delete(entities, name)
		case 1:
			fresh := make(map[string]uint32)
			for j, n := 0, 1+rng.Intn(5); j < n; j++ {
				fresh[fmt.Sprintf("e%d", rng.Intn(26))] = uint32(1 + rng.Intn(4))
			}
			mustAdd(t, ix, name, fresh)
			entities[name] = fresh
		}
	}
	lateTwin := map[string]uint32{"e1": 3, "e2": 1, "e7": 2}
	mustAdd(t, ix, "late-twin", lateTwin)
	entities["late-twin"] = lateTwin
	compare("churn")
}

// TestKNNDifferentialAllKNN is the batch acceptance gate: AllKNN's
// per-entity lists against the oracle for measures × k, and
// byte-identical to online QueryKNNEntity over the same dataset. The
// datasets: the differential corpus; one where every entity carries the
// same element (a posting list as long as the dataset); one holding an
// entity added with only zero counts (distance 1 from everything); and
// one whose entities, named by number, are added repeatedly, so Add
// merges.
func TestKNNDifferentialAllKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1013))
	stopword := randomEntities(rng, 40, 26, 7, 4)
	for _, counts := range stopword {
		counts["hot"] = 1
	}
	zeroed := knnEntities(rng, 20)
	zeroed["ghost"] = map[string]uint32{"e1": 0, "e2": 0}
	numbered := NewDataset()
	for i := 0; i < 40; i++ {
		counts := make(map[string]uint32)
		for j, n := 0, 1+rng.Intn(4); j < n; j++ {
			counts[fmt.Sprint(rng.Intn(15))] = uint32(1 + rng.Intn(3))
		}
		numbered.Add(fmt.Sprint(1+rng.Intn(25)), counts)
	}
	cases := []struct {
		name string
		d    *Dataset
	}{
		{"corpus", datasetOf(knnEntities(rng, 35))},
		{"stopword", datasetOf(stopword)},
		{"zero-counts", datasetOf(zeroed)},
		{"numbered", numbered},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The oracle reads the dataset's own view of each entity.
			entities := make(map[string]map[string]uint32, tc.d.Len())
			tc.d.Each(func(name string, counts map[string]uint32) bool {
				entities[name] = counts
				return true
			})
			names := make([]string, 0, len(entities))
			for name := range entities {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, measure := range diffMeasures {
				ix, err := BuildIndex(tc.d, IndexOptions{Measure: measure})
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				for _, k := range knnDiffKs {
					res, err := AllKNN(tc.d, k, Options{Measure: measure})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Neighbors) != len(names) {
						t.Fatalf("%s k=%d: lists for %d entities, want %d", measure, k, len(res.Neighbors), len(names))
					}
					for _, name := range names {
						tag := fmt.Sprintf("allknn %s k=%d entity %q", measure, k, name)
						batch := res.Neighbors[name]
						mustMatchKNN(t, tag, batch, oracleKNN(t, entities, measure, entities[name], name, k))
						online, err := ix.QueryKNNEntity(name, k)
						if err != nil {
							t.Fatal(err)
						}
						bj, err := json.Marshal(batch)
						if err != nil {
							t.Fatal(err)
						}
						oj, err := json.Marshal(online)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(bj, oj) {
							t.Fatalf("%s: batch and online disagree\nbatch:  %s\nonline: %s", tag, bj, oj)
						}
					}
				}
			}
		})
	}
}

// TestAllKNNRejectsBadConfig covers AllKNN's argument guards.
func TestAllKNNRejectsBadConfig(t *testing.T) {
	d := datasetOf(knnEntities(rand.New(rand.NewSource(1)), 4))
	for _, tc := range []struct {
		name string
		d    *Dataset
		k    int
		opts Options
	}{
		{"k=0", d, 0, Options{}},
		{"k<0", d, -3, Options{}},
		{"nil dataset", nil, 3, Options{}},
		{"empty dataset", NewDataset(), 3, Options{}},
		{"unknown measure", d, 3, Options{Measure: "nope"}},
	} {
		if _, err := AllKNN(tc.d, tc.k, tc.opts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// oracleMatches brute-forces every entity sharing an element with q,
// best first under the canonical public order (similarity descending,
// name ascending): the threshold answer is its prefix at or above t,
// the top-k answer its first k.
func oracleMatches(t *testing.T, entities map[string]map[string]uint32, measure string, q map[string]uint32) []Match {
	t.Helper()
	var out []Match
	for name, counts := range entities {
		if !sharesElement(q, counts) {
			continue
		}
		sim, err := Similarity(measure, q, counts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Match{Entity: name, Similarity: sim})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

func mustMatchMatches(t *testing.T, tag string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d matches, want %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Entity != want[i].Entity {
			t.Fatalf("%s: match %d is %q, oracle has %q\n got: %v\nwant: %v", tag, i, got[i].Entity, want[i].Entity, got, want)
		}
		if d := got[i].Similarity - want[i].Similarity; d < -1e-9 || d > 1e-9 {
			t.Fatalf("%s: match %q similarity %v, oracle %v", tag, got[i].Entity, got[i].Similarity, want[i].Similarity)
		}
	}
}

// TestRegimeCorporaMatchOracle runs every query kind against the oracle
// on the three partition shapes a candidate-generation choice would
// turn on — a handful of entities, a uniform alphabet, and a stop word
// every entity carries (its posting list is the whole partition) —
// before and after churn through the hottest
// posting list: its heaviest carriers are removed (tombstones in the
// list every query probes) and then re-added.
func TestRegimeCorporaMatchOracle(t *testing.T) {
	cases := []struct {
		name string
		gen  func(rng *rand.Rand) map[string]map[string]uint32
	}{
		{"small-corpus", func(rng *rand.Rand) map[string]map[string]uint32 {
			return randomEntities(rng, 30, 20, 6, 3)
		}},
		{"uniform-corpus", func(rng *rand.Rand) map[string]map[string]uint32 {
			return randomEntities(rng, 200, 400, 6, 3)
		}},
		{"stopword-corpus", func(rng *rand.Rand) map[string]map[string]uint32 {
			out := randomEntities(rng, 200, 400, 6, 3)
			for _, counts := range out {
				counts["hot"] = 1
			}
			return out
		}},
	}
	const measure = "jaccard"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			entities := tc.gen(rand.New(rand.NewSource(77)))
			names := make([]string, 0, len(entities))
			carriers := make(map[string]int)
			for name, counts := range entities {
				names = append(names, name)
				for elem := range counts {
					carriers[elem]++
				}
			}
			sort.Strings(names)
			hot := ""
			for elem, n := range carriers {
				if n > carriers[hot] || n == carriers[hot] && elem < hot {
					hot = elem
				}
			}
			// The hot element's heaviest carriers: a tenth of the corpus.
			heaviest := append([]string(nil), names...)
			sort.SliceStable(heaviest, func(i, j int) bool {
				return entities[heaviest[i]][hot] > entities[heaviest[j]][hot]
			})
			heaviest = heaviest[:len(names)/10]
			probes := []map[string]uint32{entities[names[3]], entities[heaviest[0]], {hot: 1}}

			ix, err := NewIndex(IndexOptions{Measure: measure})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for _, name := range names {
				mustAdd(t, ix, name, entities[name])
			}
			compare := func(stage string) {
				t.Helper()
				for pi, probe := range probes {
					tag := fmt.Sprintf("%s probe %d", stage, pi)
					all := oracleMatches(t, entities, measure, probe)
					for _, thr := range []float64{0, 0.5} {
						want := all
						for n, m := range all {
							if m.Similarity+1e-12 < thr {
								want = all[:n]
								break
							}
						}
						got, err := ix.QueryThreshold(probe, thr)
						if err != nil {
							t.Fatal(err)
						}
						mustMatchMatches(t, fmt.Sprintf("%s t=%v", tag, thr), got, want)
					}
					for _, k := range []int{1, 5} {
						mustMatchMatches(t, fmt.Sprintf("%s top-%d", tag, k),
							ix.QueryTopK(probe, k), all[:min(k, len(all))])
						mustMatchKNN(t, fmt.Sprintf("%s knn k=%d", tag, k),
							ix.QueryKNN(probe, k), oracleKNN(t, entities, measure, probe, "", k))
					}
				}
			}
			compare("initial")
			removed := make(map[string]map[string]uint32, len(heaviest))
			for _, name := range heaviest {
				mustRemove(t, ix, name)
				removed[name] = entities[name]
				delete(entities, name)
			}
			compare("removed")
			for _, name := range heaviest {
				mustAdd(t, ix, name, removed[name])
				entities[name] = removed[name]
			}
			compare("re-added")
		})
	}
}

// padProbes are element queries whose kNN answer is mostly or wholly
// pad: nothing indexed shares an element with the first two, exactly one
// entity (hermit-a) with the third, a handful with the last.
var padProbes = []map[string]uint32{
	{"fully-unknown": 1},
	{},
	{"only-a": 2, "nowhere": 1},
	{"e5": 4},
}

// mustPadLikeOracle holds the index's padded answers — element and
// entity-relative queries, k from 1 to beyond Len() — to the oracle over
// entities. selves are the entities to ask QueryKNNEntity about; ones
// not currently in entities are passed over.
func mustPadLikeOracle(t *testing.T, stage string, ix *Index, entities map[string]map[string]uint32, measure string, selves []string) {
	t.Helper()
	n := len(entities)
	for _, k := range []int{1, 5, n - 1, n, n + 7} {
		for pi, probe := range padProbes {
			tag := fmt.Sprintf("%s probe %d k=%d", stage, pi, k)
			mustMatchKNN(t, tag, ix.QueryKNN(probe, k), oracleKNN(t, entities, measure, probe, "", k))
		}
		for _, self := range selves {
			if _, ok := entities[self]; !ok {
				continue
			}
			got, err := ix.QueryKNNEntity(self, k)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s entity %q k=%d", stage, self, k)
			mustMatchKNN(t, tag, got, oracleKNN(t, entities, measure, entities[self], self, k))
		}
	}
}

// TestKNNPadAfterNameChurn churns the names every pad starts from — the
// smallest ones — and holds the pad to the oracle at every step: adds
// ahead of the whole corpus, a removal, a re-add, an upsert in place,
// with self among the first names and k up to and beyond Len().
func TestKNNPadAfterNameChurn(t *testing.T) {
	const measure = "jaccard"
	entities := knnEntities(rand.New(rand.NewSource(1014)), 40)
	ix, err := BuildIndex(datasetOf(entities), IndexOptions{Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	selves := []string{"!first", "!!", "hermit-a", "twin-0"}
	add := func(name string, counts map[string]uint32) {
		t.Helper()
		mustAdd(t, ix, name, counts)
		entities[name] = counts
	}
	remove := func(name string) {
		t.Helper()
		mustRemove(t, ix, name)
		delete(entities, name)
	}
	mustPadLikeOracle(t, "initial", ix, entities, measure, selves)
	add("!first", map[string]uint32{"only-first": 1})
	add("!!", map[string]uint32{"e5": 1})
	add("~last", map[string]uint32{"only-last": 3})
	mustPadLikeOracle(t, "added", ix, entities, measure, selves)
	remove("!first")
	mustPadLikeOracle(t, "removed", ix, entities, measure, selves)
	add("!first", map[string]uint32{"only-a": 1}) // back, now overlapping hermit-a
	add("!!", map[string]uint32{"only-b": 2})     // upsert in place: the name stays once
	mustPadLikeOracle(t, "re-added", ix, entities, measure, selves)
	remove("!!")
	remove("!first")
	remove("~last")
	mustPadLikeOracle(t, "all removed", ix, entities, measure, selves)
}

// TestKNNPadAfterReopen holds a durable index's pad, after OpenIndex
// rebuilds the name table from a snapshot load plus WAL replay (removes
// and re-adds of the smallest names on both sides of the snapshot),
// byte-identical to that of a volatile index that lived through the
// same mutations.
func TestKNNPadAfterReopen(t *testing.T) {
	const measure = "jaccard"
	opts := IndexOptions{Measure: measure, Dir: t.TempDir()}
	durable, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewIndex(IndexOptions{Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	entities := map[string]map[string]uint32{}
	add := func(name string, counts map[string]uint32) {
		t.Helper()
		mustAdd(t, durable, name, counts)
		mustAdd(t, live, name, counts)
		entities[name] = counts
	}
	remove := func(name string) {
		t.Helper()
		mustRemove(t, durable, name)
		mustRemove(t, live, name)
		delete(entities, name)
	}
	// Churn one name through the lowest IDs: an entity re-added after a
	// removal gets a fresh one each time.
	for i := 0; i < 8; i++ {
		add("!ghost", map[string]uint32{"old": 1})
		remove("!ghost")
	}
	corpus := knnEntities(rand.New(rand.NewSource(1015)), 40)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(name, corpus[name])
	}
	add("!first", map[string]uint32{"only-first": 1})
	add("!ghost", map[string]uint32{"only-a": 1})
	if err := durable.Snapshot(); err != nil {
		t.Fatal(err)
	}
	remove("!first")
	remove(names[0])
	add("!!", map[string]uint32{"e5": 2})
	add("!first", map[string]uint32{"only-b": 1})

	selves := []string{"!first", "!!", "!ghost", "hermit-a"}
	mustPadIdentical := func(stage string, re *Index) {
		t.Helper()
		mustPadLikeOracle(t, stage, re, entities, measure, selves)
		for _, k := range []int{3, len(entities) + 1} {
			for pi, probe := range padProbes {
				got, err := json.Marshal(re.QueryKNN(probe, k))
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(live.QueryKNN(probe, k))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s probe %d k=%d: reopened and never-closed disagree\nreopened: %s\n    live: %s", stage, pi, k, got, want)
				}
			}
		}
	}

	// Crash (durable is abandoned without Close) and recover.
	re, err := OpenIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	mustPadIdentical("snapshot+wal", re)
}

// TestKNNPadConcurrentWithApply races padded queries against Apply
// batches that add and remove the very names a pad starts from. Every
// answer must be full length, in canonical order and free of duplicate
// names — resolve and the pad read one state of the name tables — with
// the overlapping entities, which no writer touches, always leading it.
func TestKNNPadConcurrentWithApply(t *testing.T) {
	ix, err := NewIndex(IndexOptions{Measure: "jaccard", CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const stable, k = 30, 12
	for i := 0; i < stable; i++ {
		counts := map[string]uint32{fmt.Sprintf("s%d", i): 1}
		if i < 3 {
			counts["shared"] = uint32(i + 1)
		}
		mustAdd(t, ix, fmt.Sprintf("stable-%02d", i), counts)
	}
	const writers, rounds = 2, 2000
	var wg sync.WaitGroup
	writing := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				var muts []Mutation
				for j, m := 0, 1+rng.Intn(6); j < m; j++ {
					// Names on both sides of the stable ones; each writer
					// owns its own, sharing "churn" with no stable entity.
					name := fmt.Sprintf("%c-w%d-%d", "!~"[rng.Intn(2)], w, rng.Intn(8))
					if rng.Intn(3) == 0 {
						muts = append(muts, Mutation{Op: OpRemove, Entity: name})
					} else {
						muts = append(muts, Mutation{Op: OpAdd, Entity: name, Elements: map[string]uint32{"churn": 1}})
					}
				}
				if _, err := ix.Apply(context.Background(), muts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(writing) }()

	probes := []map[string]uint32{{"shared": 1}, {"absent": 1}}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-writing:
					return
				default:
				}
				got := ix.QueryKNN(probes[i%2], k)
				if len(got) != k {
					t.Errorf("got %d neighbors, want %d: %v", len(got), k, got)
					return
				}
				for j := 1; j < len(got); j++ {
					a, b := got[j-1], got[j]
					if a.Distance > b.Distance || a.Distance == b.Distance && a.Entity >= b.Entity {
						t.Errorf("neighbors %d, %d out of canonical order or duplicated: %v", j-1, j, got)
						return
					}
				}
				if i%2 == 0 && (got[0].Entity != "stable-00" || got[1].Entity != "stable-01" || got[2].Entity != "stable-02" || got[3].Distance != 1) {
					t.Errorf("overlapping entities do not lead the list: %v", got)
					return
				}
			}
		}()
	}
	readers.Wait()
	<-writing
}
