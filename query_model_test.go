package vsmartjoin_test

// Gates of the one query model: the named conveniences cannot drift
// from Query, the distance ties that 1 − sim creates are broken by name
// on every deployment shape, and K saturates instead of overflowing.
// And of the one mutation model: the write conveniences cannot drift
// from Apply, and a script of mutations ends in the same state however
// it is cut into Apply calls.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

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
// on, one with it off, and a 2-partition Cluster.
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
		{Measure: measure, CacheSize: -1},
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
			name:         fmt.Sprintf("index/cache=%d", opts.CacheSize),
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
// Index with the cache on (each request is asked twice a round, so the
// convenience's miss in the first round is the key's second and stores
// the answer, and the second round is served by hits), with it off, and
// on a Cluster.
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
		if ix, ok := s.querySurface.(*vsmartjoin.Index); ok && s.name == "index/cache=0" {
			if st := ix.Stats(); st.CacheHits == 0 {
				t.Fatalf("%s: the second round hit nothing: %+v", s.name, st)
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

// writeSurface is what *vsmartjoin.Index and *vsmartjoin.Cluster share
// on the write side, with identical signatures.
type writeSurface interface {
	Apply(ctx context.Context, muts []vsmartjoin.Mutation) ([]bool, error)
	Add(entity string, counts map[string]uint32) error
	Remove(entity string) (bool, error)
	AddBatch(entries []vsmartjoin.BatchEntry) error
}

// TestConveniencesEqualApply: every write convenience does exactly what
// Apply does with the batch it stands for — results, errors (by
// errors.Is target), entity and mutation counts, and the result-cache
// invalidation a changing write must cause and a no-op must not — on a
// volatile, an OS-durable and a sync-durable Index, and on a replicated Cluster, with and without a quorum. Two twins are
// driven side by side, one through the conveniences, one through Apply.
func TestConveniencesEqualApply(t *testing.T) {
	ctx := context.Background()
	probe := map[string]uint32{"x": 1, "y": 2}
	add := func(name string, n uint32) vsmartjoin.Mutation {
		return vsmartjoin.Mutation{Op: vsmartjoin.OpAdd, Entity: name, Elements: map[string]uint32{"x": n, "y": 1}}
	}
	remove := func(name string) vsmartjoin.Mutation {
		return vsmartjoin.Mutation{Op: vsmartjoin.OpRemove, Entity: name}
	}
	count := func(flags []bool) (n int) {
		for _, f := range flags {
			if f {
				n++
			}
		}
		return n
	}
	// same demands one outcome from a convenience and from Apply: equal
	// results, and errors that are both nil or both wrap target.
	same := func(t *testing.T, tag string, got, want any, err, werr, target error) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: convenience %v, Apply %v", tag, got, want)
		}
		if target == nil && (err != nil || werr != nil) || !errors.Is(err, target) || !errors.Is(werr, target) {
			t.Fatalf("%s: convenience error %v, Apply error %v, want both %v", tag, err, werr, target)
		}
	}
	// script drives twin a through the conveniences and twin b through
	// Apply; every call must fail with target (nil: succeed).
	script := func(t *testing.T, a, b writeSurface, removeBatch func([]string) (int, error), target error) {
		t.Helper()
		err := a.Add("e1", map[string]uint32{"x": 1, "y": 1})
		flags, werr := b.Apply(ctx, []vsmartjoin.Mutation{add("e1", 1)})
		same(t, "Add", target == nil, count(flags) == 1, err, werr, target)
		err = a.Add("e1", map[string]uint32{"x": 2, "y": 1}) // re-upsert
		_, werr = b.Apply(ctx, []vsmartjoin.Mutation{add("e1", 2)})
		same(t, "Add again", nil, nil, err, werr, target)
		err = a.AddBatch([]vsmartjoin.BatchEntry{
			{Entity: "e2", Elements: add("e2", 1).Elements},
			{Entity: "e3", Elements: add("e3", 1).Elements},
			{Entity: "e2", Elements: add("e2", 5).Elements}, // in-batch repeat
		})
		_, werr = b.Apply(ctx, []vsmartjoin.Mutation{add("e2", 1), add("e3", 1), add("e2", 5)})
		same(t, "AddBatch", nil, nil, err, werr, target)
		err = a.AddBatch(nil)
		_, werr = b.Apply(ctx, nil)
		same(t, "AddBatch(nil)", nil, nil, err, werr, nil) // an empty batch cannot fail
		for _, name := range []string{"e1", "ghost"} {
			removed, err := a.Remove(name)
			flags, werr := b.Apply(ctx, []vsmartjoin.Mutation{remove(name)})
			same(t, "Remove "+name, removed, count(flags) == 1, err, werr, target)
		}
		if removeBatch != nil {
			n, err := removeBatch([]string{"e2", "ghost", "e2"})
			flags, werr := b.Apply(ctx, []vsmartjoin.Mutation{remove("e2"), remove("ghost"), remove("e2")})
			same(t, "RemoveBatch", n, count(flags), err, werr, target)
		}
	}

	for _, shape := range []struct {
		durable bool
		opts    vsmartjoin.IndexOptions
	}{
		{false, vsmartjoin.IndexOptions{}},
		{true, vsmartjoin.IndexOptions{Durability: vsmartjoin.DurabilityOS}},
		{true, vsmartjoin.IndexOptions{Durability: vsmartjoin.DurabilitySync}},
	} {
		opts, durable := shape.opts, shape.durable
		t.Run(fmt.Sprintf("index/durable=%v/durability=%d", durable, opts.Durability), func(t *testing.T) {
			var twins [2]*vsmartjoin.Index
			for i := range twins {
				o := opts
				if durable {
					o.Dir = t.TempDir()
				}
				ix, err := vsmartjoin.NewIndex(o)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ix.Close() })
				twins[i] = ix
			}
			a, b := twins[0], twins[1]
			// The probe is asked after every step: twins whose writes bump the
			// cache generation alike keep equal hit and miss counts.
			agree := func(tag string) {
				t.Helper()
				ra, erra := a.QueryThreshold(probe, 0)
				rb, errb := b.QueryThreshold(probe, 0)
				sameAnswer(t, tag+" probe", ra, erra, rb, errb)
				sa, sb := a.Stats(), b.Stats()
				for _, st := range []*vsmartjoin.IndexStats{&sa, &sb} {
					*st = vsmartjoin.IndexStats{Entities: st.Entities, Adds: st.Adds, Removes: st.Removes,
						CacheHits: st.CacheHits, CacheMisses: st.CacheMisses, WALRecords: st.WALRecords}
				}
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("%s: convenience twin %+v, Apply twin %+v", tag, sa, sb)
				}
			}
			agree("empty")
			agree("empty again")        // the second miss stores the answer
			agree("empty a third time") // a cache hit on both
			script(t, a, b, a.RemoveBatch, nil)
			// The script interned the probe's elements, so its key is new.
			agree("after the script")
			agree("after the script again")
			if removed, err := a.Remove("ghost"); removed || err != nil {
				t.Fatal(removed, err)
			}
			if _, err := b.Apply(ctx, []vsmartjoin.Mutation{remove("ghost")}); err != nil {
				t.Fatal(err)
			}
			agree("after a no-op") // and a no-op invalidates nothing
			if st := a.Stats(); st.Entities != 1 || st.CacheHits != 2 {
				t.Fatalf("the script must leave e3 alone, and only the repeated probes hit: %+v", st)
			}
			for _, ix := range twins {
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !durable {
				// A volatile index has nothing to close: writes go on.
				script(t, a, b, a.RemoveBatch, nil)
				agree("after Close on a volatile index")
				return
			}
			script(t, a, b, a.RemoveBatch, vsmartjoin.ErrIndexClosed)
			if err := a.AddDataset(vsmartjoin.NewDataset()); err != nil {
				t.Fatalf("an empty dataset is an empty batch: %v", err)
			}
		})
	}

	t.Run("cluster", func(t *testing.T) {
		a, b := startCluster(t, "ruzicka", 2, 2), startCluster(t, "ruzicka", 2, 2)
		script(t, a.cluster, b.cluster, nil, nil)
		for _, cut := range []*clusterUnderTest{a, b} {
			res, err := cut.cluster.QueryThreshold(probe, 0)
			if err != nil || len(res) != 2 || res[0].Entity != "e3" || res[1].Entity != "e2" {
				t.Fatalf("after the script: %v %v, want e3 and the later e2", res, err)
			}
			// Majority of 2 is 2: one dead replica per partition stops writes.
			cut.servers[0][1].Close()
			cut.servers[1][1].Close()
		}
		script(t, a.cluster, b.cluster, nil, vsmartjoin.ErrClusterUnavailable)
		// What no node would accept never leaves the router.
		for _, bad := range [][]vsmartjoin.Mutation{
			{add("", 1)}, {remove("")}, {{Op: vsmartjoin.OpAdd, Entity: "e"}}, {{Op: "upsert", Entity: "e"}},
		} {
			if _, err := a.cluster.Apply(ctx, bad); err == nil || errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
				t.Fatalf("Apply(%+v) = %v, want a caller error", bad, err)
			}
		}
		// Each dead replica owes the latest op on e1, e2, e3 and ghost (a
		// live one that acked late is queued only until its ack drains).
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			pa, pb := a.cluster.PendingRepairs(), b.cluster.PendingRepairs()
			if pa == 4 && pb == 4 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pending repairs: convenience twin %d, Apply twin %d, want 4 each", pa, pb)
			}
		}
	})
}

// TestMutationScriptModel: one seeded script of upserts, re-upserts,
// removes, removes of absent names and in-batch repeats, applied (a) one
// mutation per Apply and (b) cut into random-sized Apply batches, always
// ends in the state a plain map reaches, reports the flags the map
// predicts, and reopens into the same state. Driving (a) through
// Add/Remove or through one-op Apply writes byte-identical files, logs
// and snapshots alike: both list a record's elements in ascending name
// order, so the bytes are a function of the mutation sequence and not
// of the order in which a run happened to intern the element names.
func TestMutationScriptModel(t *testing.T) {
	ctx := context.Background()
	names, muts := mutationScript()

	// oracle applies a batch to the model and predicts Apply's flags: a
	// remove reports whether the name was there, an upsert true unless a
	// later upsert of the batch supersedes it with no remove in between.
	oracle := func(model map[string]map[string]uint32, batch []vsmartjoin.Mutation) []bool {
		flags := make([]bool, len(batch))
		lastAdd := map[string]int{}
		for i, m := range batch {
			if m.Op == vsmartjoin.OpRemove {
				_, flags[i] = model[m.Entity]
				delete(model, m.Entity)
				delete(lastAdd, m.Entity)
				continue
			}
			if prev, ok := lastAdd[m.Entity]; ok {
				flags[prev] = false
			}
			flags[i], lastAdd[m.Entity], model[m.Entity] = true, i, m.Elements
		}
		return flags
	}
	check := func(t *testing.T, tag string, ix *vsmartjoin.Index, model map[string]map[string]uint32) {
		t.Helper()
		if ix.Len() != len(model) {
			t.Fatalf("%s: %d entities, the model has %d", tag, ix.Len(), len(model))
		}
		for _, name := range names {
			got, ok := ix.Elements(name)
			if want, wok := model[name]; ok != wok || ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s = %v %v, the model has %v %v", tag, name, got, ok, want, wok)
			}
		}
	}
	// snapshot cuts a generation whenever a driver's op count passes a
	// multiple of 16, so the logs and snapshots compared below span
	// several rotations, and requires that each cut advanced it.
	snapshot := func(t *testing.T, ix *vsmartjoin.Index, before, after int) {
		t.Helper()
		if after/16 == before/16 {
			return
		}
		gen := ix.Generation()
		if err := ix.Snapshot(); err != nil || ix.Generation() != gen+1 {
			t.Fatalf("snapshot after op %d: %v, generation %d -> %d", after, err, gen, ix.Generation())
		}
	}
	drivers := map[string]func(t *testing.T, ix *vsmartjoin.Index, model map[string]map[string]uint32){
		"one op per Apply": func(t *testing.T, ix *vsmartjoin.Index, model map[string]map[string]uint32) {
			for i, m := range muts {
				flags, err := ix.Apply(ctx, []vsmartjoin.Mutation{m})
				if want := oracle(model, []vsmartjoin.Mutation{m}); err != nil || !reflect.DeepEqual(flags, want) {
					t.Fatalf("op %d %+v: %v %v, want %v", i, m, flags, err, want)
				}
				snapshot(t, ix, i, i+1)
			}
		},
		"Add and Remove": func(t *testing.T, ix *vsmartjoin.Index, model map[string]map[string]uint32) {
			for i, m := range muts {
				had, err := true, error(nil)
				if m.Op == vsmartjoin.OpAdd {
					err = ix.Add(m.Entity, m.Elements)
				} else {
					had, err = ix.Remove(m.Entity)
				}
				if want := oracle(model, []vsmartjoin.Mutation{m}); err != nil || had != want[0] {
					t.Fatalf("op %d %+v: %v %v, want %v", i, m, had, err, want)
				}
				snapshot(t, ix, i, i+1)
			}
		},
		"random batches": func(t *testing.T, ix *vsmartjoin.Index, model map[string]map[string]uint32) {
			cut := rand.New(rand.NewSource(19))
			for lo := 0; lo < len(muts); {
				hi := min(len(muts), lo+1+cut.Intn(40))
				flags, err := ix.Apply(ctx, muts[lo:hi])
				if want := oracle(model, muts[lo:hi]); err != nil || !reflect.DeepEqual(flags, want) {
					t.Fatalf("batch [%d:%d): %v %v, want %v", lo, hi, flags, err, want)
				}
				snapshot(t, ix, lo, hi)
				lo = hi
			}
		},
	}
	root := t.TempDir()
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			opts := vsmartjoin.IndexOptions{Dir: filepath.Join(root, name)}
			ix, err := vsmartjoin.NewIndex(opts)
			if err != nil {
				t.Fatal(err)
			}
			model := map[string]map[string]uint32{}
			drive(t, ix, model)
			check(t, "live", ix, model)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			ix, err = vsmartjoin.OpenIndex(opts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "reopened", ix, model)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	files := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			out[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	byApply, byAddRemove := files(filepath.Join(root, "one op per Apply")), files(filepath.Join(root, "Add and Remove"))
	if len(byApply) != 2 || len(byApply) != len(byAddRemove) { // one snap, one wal
		t.Fatalf("files: %d by Apply, %d by Add/Remove, want 2 each", len(byApply), len(byAddRemove))
	}
	for name, data := range byApply {
		other, ok := byAddRemove[name]
		if !ok || !bytes.Equal(data, other) {
			t.Fatalf("%s differs between one-op Apply and Add/Remove", name)
		}
	}
}

// mutationScript is the model tests' seeded script of 400 upserts,
// re-upserts, removes, removes of absent names and in-batch repeats over
// the 12 names it returns.
func mutationScript() (names []string, muts []vsmartjoin.Mutation) {
	rng := rand.New(rand.NewSource(18))
	names = make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	for i := 0; i < 400; i++ {
		m := vsmartjoin.Mutation{Op: vsmartjoin.OpRemove, Entity: names[rng.Intn(len(names))]}
		if rng.Intn(3) > 0 {
			m.Op, m.Elements = vsmartjoin.OpAdd, map[string]uint32{}
			for j, k := 0, 1+rng.Intn(4); j < k; j++ {
				m.Elements[fmt.Sprintf("w%d", rng.Intn(10))] = uint32(1 + rng.Intn(3))
			}
		}
		muts = append(muts, m)
	}
	return names, muts
}

// TestMutationScriptModelUnderQueries: the model script, cut into random
// Apply batches, runs against readers asking every query kind by
// elements and by entity, and each answer must be the brute-force answer
// at a state of the model the index passed through while the query ran
// (checkQueriesUnderWrites) — volatile with the cache off and
// on, and durable.
func TestMutationScriptModelUnderQueries(t *testing.T) {
	_, muts := mutationScript()
	cut := rand.New(rand.NewSource(19))
	var batches [][]vsmartjoin.Mutation
	states := []map[string]map[string]uint32{{}}
	for lo := 0; lo < len(muts); {
		hi := min(len(muts), lo+1+cut.Intn(8))
		batches = append(batches, muts[lo:hi])
		state := maps.Clone(states[len(states)-1])
		for _, m := range muts[lo:hi] {
			if m.Op == vsmartjoin.OpAdd {
				state[m.Entity] = m.Elements
			} else {
				delete(state, m.Entity)
			}
		}
		states = append(states, state)
		lo = hi
	}
	queries := []vsmartjoin.Query{
		{Elements: map[string]uint32{"w1": 2, "w4": 1, "w7": 3}, Threshold: 0.3},
		{Elements: map[string]uint32{"w0": 1, "w5": 2, "w9": 1}, Kind: vsmartjoin.KindTopK, K: 3},
		{Elements: map[string]uint32{"w2": 2, "w3": 1}, Kind: vsmartjoin.KindKNN, K: 4},
		{Entity: "m03", Threshold: 0.2},
		{Entity: "m05", Kind: vsmartjoin.KindTopK, K: 2},
		{Entity: "m07", Kind: vsmartjoin.KindKNN, K: 3},
	}
	for _, opts := range []vsmartjoin.IndexOptions{{CacheSize: -1}, {}, {Dir: "durable"}} {
		t.Run(fmt.Sprintf("cache=%d/durable=%v", opts.CacheSize, opts.Dir != ""), func(t *testing.T) {
			if opts.Dir != "" {
				opts.Dir = t.TempDir()
			}
			ix, err := vsmartjoin.NewIndex(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			checkQueriesUnderWrites(t, ix, batches, states, queries)
		})
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

	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	for name, counts := range entities {
		if err := ix.Add(name, counts); err != nil {
			t.Fatal(err)
		}
	}
	cut := startCluster(t, measure, 3, 1)
	for name, counts := range entities {
		cut.add(t, name, counts)
	}
	shapes := []surfaceUnderTest{
		{name: "index", querySurface: ix, knn: func(counts map[string]uint32, k int) ([]vsmartjoin.Neighbor, error) {
			return ix.QueryKNN(counts, k), nil
		}},
		{name: "cluster/p3", querySurface: cut.cluster, knn: cut.cluster.QueryKNN},
	}

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
// answers exactly as K = Len() — on a cached and an uncached Index, a
// Cluster, and through both HTTP surfaces.
func TestHugeKAnswersLikeLen(t *testing.T) {
	entities := clusterEntities(rand.New(rand.NewSource(11)), 20)
	n := len(entities)
	probe := map[string]uint32{"w1": 3, "w2": 1, "tie": 2}
	for _, s := range surfacesUnderTest(t, "ruzicka", entities) {
		for round := 0; round < 3; round++ { // the third round reads the cache where there is one
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
