package vsmartjoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"vsmartjoin"
)

// churnScript is a fixed walk of single-mutation steps over a small,
// heavily overlapping corpus: every entity shares elements with every
// query, the top ranks change hands at almost every step, the subjects
// of the entity queries are re-upserted with new multisets, and the
// entities that lead the element queries' answers are removed and come
// back. states[s] is the corpus after s steps.
func churnScript(rng *rand.Rand, steps int) (muts []vsmartjoin.Mutation, states []map[string]map[string]uint32) {
	elems := func() map[string]uint32 {
		m := map[string]uint32{}
		for j, n := 0, 2+rng.Intn(3); j < n; j++ {
			m[fmt.Sprintf("x%d", rng.Intn(6))] = uint32(1 + rng.Intn(4))
		}
		return m
	}
	state := map[string]map[string]uint32{}
	for i := range 16 {
		state[fmt.Sprintf("base-%02d", i)] = elems()
	}
	states = append(states, cloneState(state))
	for s := range steps {
		var m vsmartjoin.Mutation
		switch name := fmt.Sprintf("hot-%d", rng.Intn(8)); {
		case s%5 == 0: // a subject of the entity queries changes
			m = vsmartjoin.Mutation{Op: vsmartjoin.OpAdd, Entity: fmt.Sprintf("base-%02d", rng.Intn(2)), Elements: elems()}
		case state[name] != nil && rng.Intn(2) == 0:
			m = vsmartjoin.Mutation{Op: vsmartjoin.OpRemove, Entity: name}
		default:
			m = vsmartjoin.Mutation{Op: vsmartjoin.OpAdd, Entity: name, Elements: elems()}
		}
		if m.Op == vsmartjoin.OpAdd {
			state[m.Entity] = m.Elements
		} else {
			delete(state, m.Entity)
		}
		muts = append(muts, m)
		states = append(states, cloneState(state))
	}
	return muts, states
}

func cloneState(state map[string]map[string]uint32) map[string]map[string]uint32 {
	out := make(map[string]map[string]uint32, len(state))
	for k, v := range state {
		out[k] = v
	}
	return out
}

// bruteForce answers q over one state of the corpus under ruzicka,
// Σ min / Σ max over the union of elements, by scoring every entity, in
// the canonical public order: ok is false when q names an entity the
// state does not hold.
func bruteForce(state map[string]map[string]uint32, q vsmartjoin.Query) (res vsmartjoin.QueryResult, ok bool) {
	subject := q.Elements
	if q.Entity != "" {
		if subject, ok = state[q.Entity]; !ok {
			return res, false
		}
	}
	var ns []vsmartjoin.Neighbor // every other entity, at distance 1 − similarity
	for name, counts := range state {
		if name == q.Entity {
			continue
		}
		var lo, hi uint32
		for e, x := range subject {
			lo, hi = lo+min(x, counts[e]), hi+max(x, counts[e])
		}
		for e, y := range counts {
			if _, ok := subject[e]; !ok {
				hi += y
			}
		}
		ns = append(ns, vsmartjoin.Neighbor{Entity: name, Distance: 1 - float64(lo)/float64(hi)})
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Distance != ns[j].Distance {
			return ns[i].Distance < ns[j].Distance
		}
		return ns[i].Entity < ns[j].Entity
	})
	if q.Kind == vsmartjoin.KindKNN {
		res.Neighbors = ns[:min(len(ns), q.K)]
		return res, true
	}
	for _, n := range ns {
		sim := 1 - n.Distance
		if sim == 0 || q.Kind == vsmartjoin.KindThreshold && sim+1e-12 < q.Threshold || q.Kind == vsmartjoin.KindTopK && len(res.Matches) == q.K {
			break
		}
		res.Matches = append(res.Matches, vsmartjoin.Match{Entity: n.Entity, Similarity: sim})
	}
	return res, true
}

// sameResult compares two answers: equal names in equal order and
// similarities (distances) within the differential harnesses' tolerance.
func sameResult(a, b vsmartjoin.QueryResult) bool {
	near := func(x, y float64) bool { return x-y < 1e-9 && y-x < 1e-9 }
	if len(a.Matches) != len(b.Matches) || len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i].Entity != b.Matches[i].Entity || !near(a.Matches[i].Similarity, b.Matches[i].Similarity) {
			return false
		}
	}
	for i := range a.Neighbors {
		if a.Neighbors[i].Entity != b.Neighbors[i].Entity || !near(a.Neighbors[i].Distance, b.Neighbors[i].Distance) {
			return false
		}
	}
	return true
}

// checkQueriesUnderWrites applies batches to ix through Apply, one
// writer stepping from states[0] (which ix must hold) to states[len],
// states[s] being the corpus after s batches, while four readers ask
// queries round-robin; every answer (or "not indexed" error) must be the
// brute-force answer at some state the index passed through while that
// query ran — the states from the last batch applied before it began to
// the last batch begun before it returned.
func checkQueriesUnderWrites(t *testing.T, ix *vsmartjoin.Index, batches [][]vsmartjoin.Mutation, states []map[string]map[string]uint32, queries []vsmartjoin.Query) {
	t.Helper()
	// want[s][i] is queries[i]'s answer after s batches; known[s][i] is
	// false where it names an entity state s lacks.
	want := make([][]vsmartjoin.QueryResult, len(states))
	known := make([][]bool, len(states))
	for s, state := range states {
		for _, q := range queries {
			res, ok := bruteForce(state, q)
			want[s], known[s] = append(want[s], res), append(known[s], ok)
		}
	}
	var started, done, answered atomic.Int64
	var wg sync.WaitGroup
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; done.Load() < int64(len(batches)); i++ {
				qi := i % len(queries)
				lo := done.Load()
				got, err := ix.Query(context.Background(), queries[qi])
				hi := started.Load()
				match := false
				for s := lo; s <= hi && !match; s++ {
					if err != nil {
						match = !known[s][qi]
					} else {
						match = known[s][qi] && sameResult(got, want[s][qi])
					}
				}
				if !match {
					t.Errorf("query %+v = %+v, %v: the answer at no state from batch %d to %d (%+v at %d)",
						queries[qi], got, err, lo, hi, want[lo][qi], lo)
					return
				}
				answered.Add(1)
				runtime.Gosched() // let the writer in
			}
		}()
	}
	for s, batch := range batches {
		// A few answers between two writes, so every state is queried.
		for n := answered.Load(); answered.Load() < n+4 && !t.Failed(); {
			runtime.Gosched()
		}
		started.Store(int64(s + 1))
		if _, err := ix.Apply(context.Background(), batch); err != nil {
			t.Error(err)
		}
		done.Store(int64(s + 1))
	}
	wg.Wait()
}

// TestQueriesMatchAStateTheyOverlapped is the linearizability gate of
// vsmartjoin.Query: while one writer steps a churn script through Apply, four
// readers run threshold, top-k and kNN queries by elements and by
// entity (checkQueriesUnderWrites). Cache off and on: a hit must be as
// exact as a miss.
func TestQueriesMatchAStateTheyOverlapped(t *testing.T) {
	queries := []vsmartjoin.Query{
		{Elements: map[string]uint32{"x0": 2, "x1": 1, "x3": 3}, Threshold: 0.25},
		{Elements: map[string]uint32{"x2": 1, "x4": 2, "nowhere": 1}, Kind: vsmartjoin.KindTopK, K: 3},
		{Elements: map[string]uint32{"x1": 3, "x5": 1}, Kind: vsmartjoin.KindKNN, K: 4},
		{Entity: "base-00", Threshold: 0.2},
		{Entity: "base-01", Kind: vsmartjoin.KindTopK, K: 2},
		{Entity: "hot-3", Kind: vsmartjoin.KindKNN, K: 5},
	}
	muts, states := churnScript(rand.New(rand.NewSource(52)), 600)
	batches := make([][]vsmartjoin.Mutation, len(muts))
	for i := range muts {
		batches[i] = muts[i : i+1]
	}
	for _, cacheSize := range []int{-1, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{CacheSize: cacheSize})
			if err != nil {
				t.Fatal(err)
			}
			for name, counts := range states[0] {
				if err := ix.Add(name, counts); err != nil {
					t.Fatal(err)
				}
			}
			checkQueriesUnderWrites(t, ix, batches, states, queries)
		})
	}
}
