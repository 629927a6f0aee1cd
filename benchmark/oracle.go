package main

import (
	"fmt"
	"sort"

	"vsmartjoin"
)

// The oracle is the benchmark's own exact reference, written against
// nothing but the definition of Ruzicka similarity (Σmin / Σmax over
// element multiplicities) and the documented canonical result orders.
// It shares no code with the packages under test, so a wrong answer
// from any layer shows up as a mismatch instead of being reproduced.

type elemCount struct {
	elem  int32
	count uint32
}

type oracle struct {
	names    []string
	sets     [][]elemCount // per entity, ascending elem
	card     []uint64      // Σ count per entity
	elemIDs  map[string]int32
	postings [][]int32 // elem → entity indexes
	// sortedNames lists every entity name ascending: the order kNN
	// answers fill up in once the overlapping entities run out.
	sortedNames []string
}

func newOracle(ents []entity) *oracle {
	o := &oracle{
		names:   make([]string, len(ents)),
		sets:    make([][]elemCount, len(ents)),
		card:    make([]uint64, len(ents)),
		elemIDs: make(map[string]int32),
	}
	for i, e := range ents {
		o.names[i] = e.name
		set := make([]elemCount, 0, len(e.counts))
		for elem, c := range e.counts {
			if c == 0 {
				continue
			}
			id, ok := o.elemIDs[elem]
			if !ok {
				id = int32(len(o.elemIDs))
				o.elemIDs[elem] = id
				o.postings = append(o.postings, nil)
			}
			set = append(set, elemCount{id, c})
			o.card[i] += uint64(c)
		}
		sort.Slice(set, func(a, b int) bool { return set[a].elem < set[b].elem })
		o.sets[i] = set
		for _, ec := range set {
			o.postings[ec.elem] = append(o.postings[ec.elem], int32(i))
		}
	}
	o.sortedNames = append([]string(nil), o.names...)
	sort.Strings(o.sortedNames)
	return o
}

// ruzicka is Σmin / (|a| + |b| − Σmin) for two ascending element lists
// with cardinalities ca and cb (which may count elements absent from
// the lists: a query's elements that no entity has).
func ruzicka(a, b []elemCount, ca, cb uint64) float64 {
	var sumMin uint64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].elem < b[j].elem:
			i++
		case a[i].elem > b[j].elem:
			j++
		default:
			sumMin += uint64(min(a[i].count, b[j].count))
			i++
			j++
		}
	}
	den := ca + cb - sumMin
	if den == 0 {
		return 0
	}
	return float64(sumMin) / float64(den)
}

// scored is one overlapping entity with its similarity to a query.
type scored struct {
	name string
	sim  float64
}

// overlapping scores every entity sharing at least one element with
// the query, best first (similarity descending, name ascending).
func (o *oracle) overlapping(counts map[string]uint32) []scored {
	var q []elemCount
	var cq uint64
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		cq += uint64(c)
		if id, ok := o.elemIDs[elem]; ok {
			q = append(q, elemCount{id, c})
		}
	}
	sort.Slice(q, func(a, b int) bool { return q[a].elem < q[b].elem })
	seen := make(map[int32]bool)
	var out []scored
	for _, ec := range q {
		for _, i := range o.postings[ec.elem] {
			if seen[i] {
				continue
			}
			seen[i] = true
			out = append(out, scored{o.names[i], ruzicka(q, o.sets[i], cq, o.card[i])})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].sim != out[b].sim {
			return out[a].sim > out[b].sim
		}
		return out[a].name < out[b].name
	})
	return out
}

func (o *oracle) threshold(counts map[string]uint32, t float64) []vsmartjoin.Match {
	out := []vsmartjoin.Match{}
	for _, s := range o.overlapping(counts) {
		if s.sim < t {
			break
		}
		out = append(out, vsmartjoin.Match{Entity: s.name, Similarity: s.sim})
	}
	return out
}

func (o *oracle) topK(counts map[string]uint32, k int) []vsmartjoin.Match {
	out := []vsmartjoin.Match{}
	for _, s := range o.overlapping(counts) {
		if len(out) == k {
			break
		}
		out = append(out, vsmartjoin.Match{Entity: s.name, Similarity: s.sim})
	}
	return out
}

// knn is the k nearest entities under distance 1 − similarity, name
// ascending on ties; when fewer than k entities overlap the query the
// answer fills up with non-overlapping entities at distance exactly 1
// in name order. padded reports whether that happened.
func (o *oracle) knn(counts map[string]uint32, k int) (out []vsmartjoin.Neighbor, padded bool) {
	out = []vsmartjoin.Neighbor{}
	over := o.overlapping(counts)
	for _, s := range over {
		out = append(out, vsmartjoin.Neighbor{Entity: s.name, Distance: 1 - s.sim})
	}
	// 1 − sim can map two different similarities onto one distance, so
	// the order is settled in distance space, as the system documents.
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].Entity < out[b].Entity
	})
	if len(out) > k {
		return out[:k], false
	}
	if len(out) == k || len(out) == len(o.names) {
		return out, false
	}
	has := make(map[string]bool, len(over))
	for _, s := range over {
		has[s.name] = true
	}
	for _, name := range o.sortedNames {
		if len(out) == k {
			break
		}
		if !has[name] {
			out = append(out, vsmartjoin.Neighbor{Entity: name, Distance: 1})
		}
	}
	return out, true
}

// allPairs is the exact self-join at threshold t through the oracle's
// own inverted index: pairs ordered A < B by name and sorted by (A, B),
// the order vsmartjoin.AllPairs documents.
func (o *oracle) allPairs(t float64) []vsmartjoin.Pair {
	var out []vsmartjoin.Pair
	seen := make([]int32, len(o.names)) // entity → 1 + last i it was scored against
	for i := range o.sets {
		for _, ec := range o.sets[i] {
			for _, j := range o.postings[ec.elem] {
				if int(j) <= i || seen[j] == int32(i)+1 {
					continue
				}
				seen[j] = int32(i) + 1
				sim := ruzicka(o.sets[i], o.sets[j], o.card[i], o.card[j])
				if sim < t {
					continue
				}
				a, b := o.names[i], o.names[j]
				if a > b {
					a, b = b, a
				}
				out = append(out, vsmartjoin.Pair{A: a, B: b, Similarity: sim})
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].A != out[y].A {
			return out[x].A < out[y].A
		}
		return out[x].B < out[y].B
	})
	return out
}

// The diff functions compare an answer with the oracle's exactly —
// names, order and every bit of the float — and describe the first
// difference, or return "" when the two agree.

func diffMatches(got, want []vsmartjoin.Match) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("match %d is %v, oracle has %v", i, got[i], want[i])
		}
	}
	return ""
}

func diffNeighbors(got, want []vsmartjoin.Neighbor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d neighbors, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("neighbor %d is %v, oracle has %v", i, got[i], want[i])
		}
	}
	return ""
}

func diffPairs(got, want []vsmartjoin.Pair) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pairs, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("pair %d is %v, oracle has %v", i, got[i], want[i])
		}
	}
	return ""
}
