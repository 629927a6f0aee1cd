package cluster

// The one query model of the serving stack: what a caller asks (Query),
// what it gets back (QueryResult of Match or Neighbor values), the canonical
// order of both, and the request validation. It is declared here — the
// lowest package both the root and the router can import — and the root
// package exports every name as an alias, so a vsmartjoin.Index, a
// Cluster, the HTTP handlers and the node wire format share one
// declaration of each and no conversion.

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Match is one similarity result; the JSON names are the daemon's wire
// names. Canonical order: similarity descending, entity name ascending
// on ties.
type Match struct {
	Entity     string  `json:"entity"`
	Similarity float64 `json:"similarity"`
}

// Neighbor is one kNN result at distance 1 − similarity. Canonical
// order: distance ascending, entity name ascending on ties.
type Neighbor struct {
	Entity   string  `json:"entity"`
	Distance float64 `json:"distance"`
}

// worseMatch is the canonical result comparator: a ranks below b on
// lower similarity, or on greater entity name at equal similarities.
// Entity names are unique (across a cluster too: one owner partition
// per name), so this is a total order and every merge is deterministic.
func worseMatch(a, b Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity < b.Similarity
	}
	return a.Entity > b.Entity
}

// worseNeighbor is worseMatch in distance space.
func worseNeighbor(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.Entity > b.Entity
}

// SortMatches orders matches best first under the canonical ordering.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		switch {
		case worseMatch(b, a):
			return -1
		case worseMatch(a, b):
			return 1
		default:
			return 0
		}
	})
}

// SortNeighbors orders neighbors nearest first under the canonical
// ordering.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case worseNeighbor(b, a):
			return -1
		case worseNeighbor(a, b):
			return 1
		default:
			return 0
		}
	})
}

// QueryKind selects what a Query asks for; vsmartjoin's aliases of the
// constants document each kind.
type QueryKind uint8

const (
	KindThreshold QueryKind = iota // every entity with similarity ≥ Query.Threshold
	KindTopK                       // the Query.K most similar overlapping entities
	KindKNN                        // the Query.K nearest under 1 − similarity, padded with non-overlapping ones
)

// Query is one similarity query: who is asked about (an indexed entity
// by name — excluded from its own answer — or else an ad-hoc multiset
// of element counts, possibly empty), what kind of answer is wanted,
// and the kind's parameter.
type Query struct {
	Entity   string
	Elements map[string]uint32

	Kind      QueryKind
	Threshold float64 // KindThreshold: the similarity cut-off, in [0, 1]
	K         int     // KindTopK, KindKNN: the result count, positive
}

// QueryResult is a query answer in the canonical order: Matches for
// KindThreshold and KindTopK, Neighbors for KindKNN; the other field is
// nil. The JSON names are the daemons' /query and /knn response
// fields.
type QueryResult struct {
	Matches   []Match    `json:"matches,omitempty"`
	Neighbors []Neighbor `json:"neighbors,omitempty"`
}

// maxK caps Query.K so the k+1 probe above it (the router's self-drop
// slot) cannot overflow; no index holds that many entities, so a larger
// K asks for the same answer.
const maxK = math.MaxInt - 1

// CheckQuery is the one request check every Query entry point runs; it
// also saturates q.K at maxK. Errors carry no package prefix — callers
// add their own.
func CheckQuery(q *Query) error {
	if q.Entity != "" && len(q.Elements) > 0 {
		return errors.New("name the query with at most one of entity or elements")
	}
	switch q.Kind {
	case KindThreshold:
		if t := q.Threshold; t != t || t < 0 || t > 1 {
			return fmt.Errorf("threshold %v outside [0, 1]", t)
		}
	case KindTopK, KindKNN:
		if q.K <= 0 {
			if q.Kind == KindTopK {
				return fmt.Errorf("topk %d must be positive", q.K)
			}
			return fmt.Errorf("knn k %d must be positive", q.K)
		}
		q.K = min(q.K, maxK)
	default:
		return fmt.Errorf("unknown query kind %d", q.Kind)
	}
	return nil
}
