// Package graph implements the community-discovery post-processing of the
// paper's motivating application (§1, §7.4): similar IP pairs become edges
// of a similarity graph, whose connected components are the candidate load
// balancers. It also scores discovered communities against the planted
// ground truth.
package graph

import (
	"sort"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
)

// UnionFind is a disjoint-set forest over sparse multiset IDs with path
// compression and union by size.
type UnionFind struct {
	parent map[multiset.ID]multiset.ID
	size   map[multiset.ID]int
}

// NewUnionFind returns an empty forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{
		parent: make(map[multiset.ID]multiset.ID),
		size:   make(map[multiset.ID]int),
	}
}

// Add registers an element as its own singleton component.
func (u *UnionFind) Add(x multiset.ID) {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
		u.size[x] = 1
	}
}

// Find returns the representative of x's component, adding x if new.
func (u *UnionFind) Find(x multiset.ID) multiset.ID {
	u.Add(x)
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// Union merges the components of a and b.
func (u *UnionFind) Union(a, b multiset.ID) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Components extracts all components, each sorted by ID, largest first
// (ties by smallest member).
func (u *UnionFind) Components() [][]multiset.ID {
	byRoot := make(map[multiset.ID][]multiset.ID)
	ids := make([]multiset.ID, 0, len(u.parent))
	for id := range u.parent {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := u.Find(id)
		byRoot[r] = append(byRoot[r], id)
	}
	out := make([][]multiset.ID, 0, len(byRoot))
	for _, members := range byRoot {
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// Communities clusters similar pairs into connected components — the
// paper's post-processing step. Singleton components cannot arise since
// every edge touches two nodes.
func Communities(pairs []records.Pair) [][]multiset.ID {
	uf := NewUnionFind()
	for _, p := range pairs {
		uf.Union(p.A, p.B)
	}
	return uf.Components()
}

// Metrics scores discovered pairs against planted ground-truth communities
// in the §7.4 style.
type Metrics struct {
	// Coverage is the number of distinct IPs appearing in any discovered
	// pair (the paper judges thresholds by coverage).
	Coverage int
	// TruePairs is the number of discovered pairs within one ground-truth
	// community.
	TruePairs int
	// FalsePairs is the number of discovered pairs not within any
	// ground-truth community (the paper's "false positives").
	FalsePairs int
	// Precision is TruePairs / (TruePairs + FalsePairs).
	Precision float64
	// RecalledIPs is the number of ground-truth member IPs discovered.
	RecalledIPs int
	// TruthIPs is the total number of ground-truth member IPs.
	TruthIPs int
}

// Score compares discovered pairs to ground truth.
func Score(pairs []records.Pair, truth [][]multiset.ID) Metrics {
	group := make(map[multiset.ID]int)
	var truthIPs int
	for g, members := range truth {
		truthIPs += len(members)
		for _, id := range members {
			group[id] = g + 1
		}
	}
	var m Metrics
	m.TruthIPs = truthIPs
	seen := make(map[multiset.ID]bool)
	recalled := make(map[multiset.ID]bool)
	for _, p := range pairs {
		ga, gb := group[p.A], group[p.B]
		if ga != 0 && ga == gb {
			m.TruePairs++
			recalled[p.A] = true
			recalled[p.B] = true
		} else {
			m.FalsePairs++
		}
		seen[p.A] = true
		seen[p.B] = true
	}
	m.Coverage = len(seen)
	m.RecalledIPs = len(recalled)
	if m.TruePairs+m.FalsePairs > 0 {
		m.Precision = float64(m.TruePairs) / float64(m.TruePairs+m.FalsePairs)
	}
	return m
}
