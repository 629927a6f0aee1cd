package graph

import (
	"math/rand"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind()
	uf.Union(1, 2)
	uf.Union(3, 4)
	if uf.Find(1) == uf.Find(3) {
		t.Fatal("1 and 3 should be separate")
	}
	uf.Union(2, 3)
	if uf.Find(1) != uf.Find(4) {
		t.Fatal("1 and 4 should be connected")
	}
}

func TestComponentsSortedLargestFirst(t *testing.T) {
	uf := NewUnionFind()
	uf.Union(10, 11)
	uf.Union(1, 2)
	uf.Union(2, 3)
	uf.Add(99)
	comps := uf.Components()
	if len(comps) != 3 {
		t.Fatalf("components: %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 1 {
		t.Fatalf("largest first wrong: %v", comps)
	}
	if len(comps[2]) != 1 || comps[2][0] != 99 {
		t.Fatalf("singleton wrong: %v", comps)
	}
}

func TestCommunitiesFromPairs(t *testing.T) {
	pairs := []records.Pair{
		{A: 1, B: 2}, {A: 2, B: 3}, {A: 7, B: 8},
	}
	comps := Communities(pairs)
	if len(comps) != 2 {
		t.Fatalf("components: %v", comps)
	}
	if len(comps[0]) != 3 {
		t.Fatalf("first component: %v", comps[0])
	}
}

// Union-find components must equal DFS components on random graphs.
func TestUnionFindMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		var pairs []records.Pair
		adj := map[multiset.ID][]multiset.ID{}
		for e := 0; e < rng.Intn(40); e++ {
			a := multiset.ID(rng.Intn(n) + 1)
			b := multiset.ID(rng.Intn(n) + 1)
			if a == b {
				continue
			}
			pairs = append(pairs, records.Pair{A: a, B: b})
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		got := Communities(pairs)
		// DFS ground truth.
		visited := map[multiset.ID]bool{}
		var wantSizes []int
		var dfs func(multiset.ID) int
		dfs = func(v multiset.ID) int {
			visited[v] = true
			size := 1
			for _, u := range adj[v] {
				if !visited[u] {
					size += dfs(u)
				}
			}
			return size
		}
		for v := range adj {
			if !visited[v] {
				wantSizes = append(wantSizes, dfs(v))
			}
		}
		var gotNodes, wantNodes int
		for _, c := range got {
			gotNodes += len(c)
		}
		for _, s := range wantSizes {
			wantNodes += s
		}
		if len(got) != len(wantSizes) || gotNodes != wantNodes {
			t.Fatalf("trial %d: got %d comps/%d nodes, want %d/%d",
				trial, len(got), gotNodes, len(wantSizes), wantNodes)
		}
		// Every edge must be within one component.
		compOf := map[multiset.ID]int{}
		for ci, c := range got {
			for _, v := range c {
				compOf[v] = ci
			}
		}
		for _, p := range pairs {
			if compOf[p.A] != compOf[p.B] {
				t.Fatalf("trial %d: edge (%d,%d) crosses components", trial, p.A, p.B)
			}
		}
	}
}

func TestScore(t *testing.T) {
	truth := [][]multiset.ID{{1, 2, 3}, {10, 11}}
	pairs := []records.Pair{
		{A: 1, B: 2},   // true
		{A: 2, B: 3},   // true
		{A: 10, B: 11}, // true
		{A: 1, B: 10},  // false (crosses groups)
		{A: 50, B: 51}, // false (background)
	}
	m := Score(pairs, truth)
	if m.TruePairs != 3 || m.FalsePairs != 2 {
		t.Fatalf("pairs: %+v", m)
	}
	if m.Coverage != 7 {
		t.Fatalf("coverage: %d", m.Coverage)
	}
	if m.RecalledIPs != 5 || m.TruthIPs != 5 {
		t.Fatalf("recall: %+v", m)
	}
	if m.Precision != 0.6 {
		t.Fatalf("precision: %v", m.Precision)
	}
}

func TestScoreEmpty(t *testing.T) {
	m := Score(nil, nil)
	if m.Precision != 0 || m.Coverage != 0 {
		t.Fatalf("empty score: %+v", m)
	}
}
