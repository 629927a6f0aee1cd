package vsmartjoin_test

// Gates of the one query model: the named conveniences cannot drift
// from Query, the distance ties that 1 − sim creates are broken by name
// on every deployment shape, and K saturates instead of overflowing.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vsmartjoin"
	"vsmartjoin/internal/httpd"
)

// querySurface is what *vsmartjoin.Index and *vsmartjoin.Cluster share
// with identical signatures; QueryTopK and QueryKNN differ (the Index
// forms cannot fail) and are adapted by surfacesUnderTest.
type querySurface interface {
	Query(ctx context.Context, q vsmartjoin.Query) (vsmartjoin.QueryResult, error)
	QueryThreshold(counts map[string]uint32, t float64) ([]vsmartjoin.Match, error)
	QueryEntity(entity string, t float64) ([]vsmartjoin.Match, error)
	QueryKNNEntity(entity string, k int) ([]vsmartjoin.Neighbor, error)
}

type surfaceUnderTest struct {
	name string
	querySurface
	topK func(counts map[string]uint32, k int) ([]vsmartjoin.Match, error)
	knn  func(counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error)
}

// surfacesUnderTest loads entities into an Index with the result cache
// on, one with it off (two shards), and a 2-partition Cluster.
func surfacesUnderTest(t *testing.T, measure string, entities map[string]map[string]uint32) []surfaceUnderTest {
	t.Helper()
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []surfaceUnderTest
	for _, opts := range []vsmartjoin.IndexOptions{
		{Measure: measure},
		{Measure: measure, Shards: 2, CacheSize: -1},
	} {
		ix, err := vsmartjoin.NewIndex(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := ix.Add(name, entities[name]); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, surfaceUnderTest{
			name:         fmt.Sprintf("index/shards=%d/cache=%d", opts.Shards, opts.CacheSize),
			querySurface: ix,
			topK: func(counts map[string]uint32, k int) ([]vsmartjoin.Match, error) {
				return ix.QueryTopK(counts, k), nil
			},
			knn: func(counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error) {
				return ix.QueryKNN(counts, k), nil
			},
		})
	}
	cut := startCluster(t, measure, 2, 1)
	for _, name := range names {
		cut.add(t, name, entities[name])
	}
	return append(out, surfaceUnderTest{
		name: "cluster/p2", querySurface: cut.cluster,
		topK: cut.cluster.QueryTopK, knn: cut.cluster.QueryKNN,
	})
}

// TestConveniencesEqualQuery: every named query method returns exactly
// what Query returns for the same request — results and errors — on an
// Index with the cache on (asked twice, so the second answer is a hit),
// with it off, and on a Cluster.
func TestConveniencesEqualQuery(t *testing.T) {
	entities := clusterEntities(rand.New(rand.NewSource(7)), 30)
	probe := map[string]uint32{"w1": 3, "w2": 1, "tie": 2}
	ctx := context.Background()
	for _, s := range surfacesUnderTest(t, "ruzicka", entities) {
		for round := 0; round < 2; round++ {
			tag := fmt.Sprintf("%s round %d", s.name, round)
			for _, thr := range []float64{0, 0.4, 1, 1.5} {
				want, werr := s.Query(ctx, vsmartjoin.Query{Elements: probe, Threshold: thr})
				got, err := s.QueryThreshold(probe, thr)
				sameAnswer(t, fmt.Sprintf("%s QueryThreshold(%v)", tag, thr), got, err, want.Matches, werr)
				for _, entity := range []string{"dup0", "e003", "ghost"} {
					want, werr = s.Query(ctx, vsmartjoin.Query{Entity: entity, Threshold: thr})
					got, err = s.QueryEntity(entity, thr)
					sameAnswer(t, fmt.Sprintf("%s QueryEntity(%q, %v)", tag, entity, thr), got, err, want.Matches, werr)
				}
			}
			for _, k := range []int{1, 3, 1000} {
				want, werr := s.Query(ctx, vsmartjoin.Query{Elements: probe, Kind: vsmartjoin.KindTopK, K: k})
				got, err := s.topK(probe, k)
				sameAnswer(t, fmt.Sprintf("%s QueryTopK(%d)", tag, k), got, err, want.Matches, werr)

				want, werr = s.Query(ctx, vsmartjoin.Query{Elements: probe, Kind: vsmartjoin.KindKNN, K: k})
				gotN, err := s.knn(probe, k)
				sameAnswer(t, fmt.Sprintf("%s QueryKNN(%d)", tag, k), gotN, err, want.Neighbors, werr)

				for _, entity := range []string{"dup0", "ghost"} {
					want, werr = s.Query(ctx, vsmartjoin.Query{Entity: entity, Kind: vsmartjoin.KindKNN, K: k})
					gotN, err = s.QueryKNNEntity(entity, k)
					sameAnswer(t, fmt.Sprintf("%s QueryKNNEntity(%q, %d)", tag, entity, k), gotN, err, want.Neighbors, werr)
				}
			}
		}
		// A malformed query is refused, not guessed at.
		for _, q := range []vsmartjoin.Query{
			{Entity: "dup0", Elements: probe},
			{Elements: probe, Kind: vsmartjoin.KindTopK},
			{Elements: probe, Kind: vsmartjoin.KindKNN, K: -1},
			{Elements: probe, Kind: vsmartjoin.KindKNN + 1, K: 1},
		} {
			if res, err := s.Query(ctx, q); err == nil {
				t.Fatalf("%s: Query(%+v) = %+v, want an error", s.name, q, res)
			}
		}
	}
}

// sameAnswer demands deeply equal results (nil-ness included) and
// equal error text.
func sameAnswer[T any](t *testing.T, tag string, got []T, err error, want []T, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, Query's %v", tag, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n   got %v\nQuery's %v", tag, got, want)
	}
}

// TestKNNDistanceTiesBrokenByName is the floating-point tie property.
// Every entity shares element "s" with the query and adds a private
// element with a count near 4e9, so under ruzicka its similarity is
// 1/(1+count) ≈ 2.5e-10: neighbouring counts give similarities that
// differ (by ≈6e-20) while 1 − sim rounds to one and the same float64.
// Within each such group the entities are named in the opposite order
// to their similarities, so an answer ordered in similarity space — or
// one that breaks the collapsed ties by anything but the name — comes
// out visibly wrong. Every deployment shape must give byte-identical
// JSON, equal to a brute-force (distance, name) oracle, also when k
// cuts a group in two.
func TestKNNDistanceTiesBrokenByName(t *testing.T) {
	const measure, perGroup = "ruzicka", 6
	query := map[string]uint32{"s": 1}
	entities := map[string]map[string]uint32{"q": query}
	for g, base := range []uint32{4_000_000_000, 4_100_000_000, 4_200_000_000} {
		var sims, dists []float64
		for i := 0; i < perGroup; i++ {
			// Rising i lowers the similarity and must lower the name's rank.
			name := fmt.Sprintf("g%d-%02d", g, perGroup-1-i)
			entities[name] = map[string]uint32{"s": 1, "p-" + name: base + uint32(i)}
			sim, err := vsmartjoin.Similarity(measure, query, entities[name])
			if err != nil {
				t.Fatal(err)
			}
			sims, dists = append(sims, sim), append(dists, 1-sim)
		}
		for i := 1; i < perGroup; i++ {
			if !(sims[i] < sims[i-1]) || dists[i] != dists[0] {
				t.Fatalf("premise broken in group %d: sims %v must strictly fall while distances %v collapse", g, sims, dists)
			}
		}
	}

	oracle := func(self string, k int) []vsmartjoin.Neighbor {
		var out []vsmartjoin.Neighbor
		for name, counts := range entities {
			if name == self {
				continue
			}
			sim, err := vsmartjoin.Similarity(measure, query, counts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, vsmartjoin.Neighbor{Entity: name, Distance: 1 - sim})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Distance != out[j].Distance {
				return out[i].Distance < out[j].Distance
			}
			return out[i].Entity < out[j].Entity
		})
		return out[:min(k, len(out))]
	}

	var shapes []surfaceUnderTest
	for _, shards := range []int{1, 3, 8} {
		ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: measure, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for name, counts := range entities {
			if err := ix.Add(name, counts); err != nil {
				t.Fatal(err)
			}
		}
		shapes = append(shapes, surfaceUnderTest{
			name: fmt.Sprintf("index/shards=%d", shards), querySurface: ix,
			knn: func(counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error) {
				return ix.QueryKNN(counts, k), nil
			},
		})
	}
	cut := startCluster(t, measure, 3, 1)
	for name, counts := range entities {
		cut.add(t, name, counts)
	}
	shapes = append(shapes, surfaceUnderTest{name: "cluster/p3", querySurface: cut.cluster, knn: cut.cluster.QueryKNN})

	for _, k := range []int{1, 2, perGroup - 1, perGroup, perGroup + 3, 3 * perGroup, 100} {
		for _, s := range shapes {
			// "q" itself is indexed: nearest of all by elements, excluded by entity.
			got, err := s.knn(query, k)
			mustMatchNeighbors(t, fmt.Sprintf("%s QueryKNN k=%d", s.name, k), got, oracle("", k), err)
			got, err = s.QueryKNNEntity("q", k)
			mustMatchNeighbors(t, fmt.Sprintf("%s QueryKNNEntity k=%d", s.name, k), got, oracle("q", k), err)
		}
	}
}

// TestHugeKAnswersLikeLen pins the K overflow fix: the tie detector
// probes for K+1 (and the router for one more), which used to wrap
// negative at K = math.MaxInt and silently answer nothing (top-k) or
// every entity at distance 1 (kNN). Now K saturates, so the largest K
// answers exactly as K = Len() — on an Index, a 2-shard Index, a
// Cluster, and through both HTTP surfaces.
func TestHugeKAnswersLikeLen(t *testing.T) {
	entities := clusterEntities(rand.New(rand.NewSource(11)), 20)
	n := len(entities)
	probe := map[string]uint32{"w1": 3, "w2": 1, "tie": 2}
	for _, s := range surfacesUnderTest(t, "ruzicka", entities) {
		for round := 0; round < 2; round++ { // the second round reads the cache where there is one
			got, err := s.topK(probe, math.MaxInt)
			want, werr := s.topK(probe, n)
			sameAnswer(t, s.name+" topk", got, err, want, werr)
			if len(got) == 0 || len(got) == n {
				t.Fatalf("%s: top-k returned %d of %d entities; the probe must overlap some, not all", s.name, len(got), n)
			}
			gotN, err := s.knn(probe, math.MaxInt)
			wantN, werr := s.knn(probe, n)
			sameAnswer(t, s.name+" knn", gotN, err, wantN, werr)
			if len(gotN) != n || gotN[0].Distance != 0 {
				t.Fatalf("%s: kNN must list all %d entities, an exact duplicate of the probe first: %v", s.name, n, gotN)
			}
			gotN, err = s.QueryKNNEntity("dup0", math.MaxInt)
			wantN, werr = s.QueryKNNEntity("dup0", n)
			sameAnswer(t, s.name+" knn entity", gotN, err, wantN, werr)
			if len(gotN) != n-1 {
				t.Fatalf("%s: entity kNN must list the other %d entities: %v", s.name, n-1, gotN)
			}
		}
	}

	// Over HTTP, node and router: the wire fields are "topk" and "k".
	cut := startCluster(t, "ruzicka", 2, 1)
	for name, counts := range entities {
		cut.add(t, name, counts)
	}
	router := httptest.NewServer(httpd.NewRouter(cut.cluster, httpd.Options{}))
	t.Cleanup(router.Close)
	post := func(url, body string) string {
		t.Helper()
		resp, err := router.Client().Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s %v", url, body, resp.StatusCode, out, err)
		}
		return string(out)
	}
	elements, err := json.Marshal(probe)
	if err != nil {
		t.Fatal(err)
	}
	onNode0 := "dup0" // an entity the first node itself holds
	for i := 1; vsmartjoin.PartitionOfEntity(onNode0, 2) != 0; i++ {
		onNode0 = fmt.Sprintf("dup%d", i)
	}
	for _, base := range []string{cut.servers[0][0].URL, router.URL} {
		for _, form := range []string{
			`/query {"elements": %s, "topk": %d}`,
			`/knn {"elements": %s, "k": %d}`,
			`/knn {"entity": "` + onNode0 + `", "k": %d}`,
		} {
			path, body, _ := strings.Cut(form, " ")
			args := func(k int) []any {
				if strings.Contains(body, "%s") {
					return []any{elements, k}
				}
				return []any{k}
			}
			huge := post(base+path, fmt.Sprintf(body, args(math.MaxInt)...))
			if all := post(base+path, fmt.Sprintf(body, args(n)...)); huge != all || len(huge) < 40 {
				t.Fatalf("%s%s: k=MaxInt answered %s, k=%d answered %s", base, path, huge, n, all)
			}
		}
	}
}
