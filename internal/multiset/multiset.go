// Package multiset defines the entity data model of the similarity join:
// multisets ("bags") over a numeric alphabet, their underlying sets, and the
// cardinality notions used throughout the paper.
//
// A multiset Mi is a collection of ⟨ak, fi,k⟩ pairs where ak is an alphabet
// element (cookie, shingle, dimension index, ...) and fi,k ∈ ℕ is its
// multiplicity. Sets are multisets whose multiplicities are all 1; vectors
// over a totally ordered alphabet are multisets whose multiplicities are the
// coordinates.
package multiset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Elem identifies an alphabet element. String alphabets are interned into
// Elem values with a Dict.
type Elem uint64

// ID identifies a multiset (an IP address, a document, ...).
type ID uint64

// Entry is one ⟨element, multiplicity⟩ pair of a multiset.
type Entry struct {
	Elem  Elem
	Count uint32
}

// Multiset is an entity: an identifier plus its entries sorted by element.
// The zero value is an empty multiset with ID 0.
type Multiset struct {
	ID      ID
	Entries []Entry // sorted by Elem, Count > 0, no duplicate Elems
}

// New builds a normalized multiset from possibly unsorted, possibly
// duplicated entries. Duplicate elements have their multiplicities summed,
// saturating at math.MaxUint32; zero-multiplicity entries are dropped.
func New(id ID, entries []Entry) Multiset {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Count > 0 {
			out = append(out, e)
		}
	}
	SortEntries(out)
	// Merge duplicates in place.
	w := 0
	for _, e := range out {
		if w > 0 && out[w-1].Elem == e.Elem {
			if sum := out[w-1].Count + e.Count; sum >= e.Count {
				out[w-1].Count = sum
			} else {
				out[w-1].Count = math.MaxUint32
			}
			continue
		}
		out[w] = e
		w++
	}
	return Multiset{ID: id, Entries: out[:w]}
}

// FromCounts builds a multiset from an element→multiplicity map.
func FromCounts(id ID, counts map[Elem]uint32) Multiset {
	entries := make([]Entry, 0, len(counts))
	for e, c := range counts {
		if c > 0 {
			entries = append(entries, Entry{Elem: e, Count: c})
		}
	}
	SortEntries(entries)
	return Multiset{ID: id, Entries: entries}
}

// SortEntries sorts entries by element in place. It is slices.SortFunc,
// not sort.Slice, whose reflection-built swapper allocates on every call.
func SortEntries(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Elem, b.Elem) })
}

// FromSet builds a set (all multiplicities 1) from element values.
// Duplicate elements are deduplicated, not summed.
func FromSet(id ID, elems []Elem) Multiset {
	entries := make([]Entry, len(elems))
	for i, e := range elems {
		entries[i] = Entry{Elem: e, Count: 1}
	}
	m := New(id, entries)
	for i := range m.Entries {
		m.Entries[i].Count = 1
	}
	return m
}

// Cardinality is |Mi| = Σk fi,k, the multiset cardinality.
func (m Multiset) Cardinality() uint64 {
	var total uint64
	for _, e := range m.Entries {
		total += uint64(e.Count)
	}
	return total
}

// UnderlyingCardinality is |U(Mi)|, the number of distinct elements present.
func (m Multiset) UnderlyingCardinality() int { return len(m.Entries) }

// Count returns the multiplicity of elem (0 if absent).
func (m Multiset) Count(elem Elem) uint32 {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].Elem >= elem })
	if i < len(m.Entries) && m.Entries[i].Elem == elem {
		return m.Entries[i].Count
	}
	return 0
}

// Contains reports whether elem appears with positive multiplicity.
func (m Multiset) Contains(elem Elem) bool { return m.Count(elem) > 0 }

// Clone returns a deep copy of m.
func (m Multiset) Clone() Multiset {
	entries := make([]Entry, len(m.Entries))
	copy(entries, m.Entries)
	return Multiset{ID: m.ID, Entries: entries}
}

// String renders a compact debug form.
func (m Multiset) String() string {
	return fmt.Sprintf("M%d%v", m.ID, m.Entries)
}

// IntersectionCardinality is |Mi ∩ Mj| = Σk min(fi,k, fj,k).
func IntersectionCardinality(a, b Multiset) uint64 {
	var total uint64
	i, j := 0, 0
	for i < len(a.Entries) && j < len(b.Entries) {
		switch {
		case a.Entries[i].Elem < b.Entries[j].Elem:
			i++
		case a.Entries[i].Elem > b.Entries[j].Elem:
			j++
		default:
			total += uint64(min(a.Entries[i].Count, b.Entries[j].Count))
			i++
			j++
		}
	}
	return total
}

// UnionCardinality is |Mi ∪ Mj| = Σk max(fi,k, fj,k).
func UnionCardinality(a, b Multiset) uint64 {
	return a.Cardinality() + b.Cardinality() - IntersectionCardinality(a, b)
}

// ExpandedElem is one element of the set representation of a multiset in the
// style of Chaudhuri et al.: element mi,k with multiplicity f expands into
// the distinct items ⟨ak, 1⟩ ... ⟨ak, f⟩.
type ExpandedElem struct {
	Elem Elem
	Copy uint32 // 1-based copy index
}

// Expand returns the set representation of m. The result has exactly
// Cardinality() items and is ordered by (Elem, Copy).
func Expand(m Multiset) []ExpandedElem {
	out := make([]ExpandedElem, 0, m.Cardinality())
	for _, e := range m.Entries {
		for c := uint32(1); c <= e.Count; c++ {
			out = append(out, ExpandedElem{Elem: e.Elem, Copy: c})
		}
	}
	return out
}

// Mix64 is the splitmix64 finalizer over x + 0x9e3779b97f4a7c15. Entity
// routing, the Sharding fingerprint and VCL's hash order are built on
// it, so carved cluster dirs and the simulated figures pin its output.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Equal reports whether a and b have the same ID and identical entries.
func Equal(a, b Multiset) bool {
	if a.ID != b.ID || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}
