// Package vsmartjoin exercises canonicalorder at the root scope path,
// where the result types are aliases of internal/cluster's: raw
// returns, conversions, canonicalized locals, delegation (including a
// field of a delegated QueryResult), re-slicing, and the suppression
// contract.
package vsmartjoin

import "vsmartjoin/internal/cluster"

type (
	Match       = cluster.Match
	Neighbor    = cluster.Neighbor
	QueryResult = cluster.QueryResult
)

// SortNeighborsByName is the root package's exported kNN canonicalizer.
func SortNeighborsByName(ns []Neighbor) { cluster.SortNeighbors(ns) }

func query(in []Match) (QueryResult, error) {
	out := append([]Match{}, in...)
	cluster.SortMatches(out)
	return QueryResult{Matches: out}, nil
}

func convenience(in []Match) ([]Match, error) {
	res, err := query(in)
	return res.Matches, err // a field of a delegated QueryResult
}

func bad(in []Match) []Match {
	out := append([]Match{}, in...)
	return out // want `returning a \[\]Match that did not pass through a canonicalizer`
}

func badResultField(in []Match) []Match {
	var res QueryResult
	res.Matches = append(res.Matches, in...)
	return res.Matches // want `did not pass through a canonicalizer`
}

func badConversion(in []Match) []Match {
	type heap []Match
	h := heap(in)
	return []Match(h) // want `did not pass through a canonicalizer`
}

func good(in []Match) []Match {
	out := append([]Match{}, in...)
	cluster.SortMatches(out)
	return out
}

func nilAndEmptyAreFine(fail bool) ([]Match, error) {
	if fail {
		return nil, nil
	}
	return []Match{}, nil
}

func delegation(in []Match) []Match {
	return good(in) // the callee is held to the same rule
}

func sliced(in []Match, k int) []Match {
	out := append([]Match{}, in...)
	cluster.SortMatches(out)
	if len(out) > k {
		out = out[:k] // re-slicing preserves canonical order
	}
	return out
}

func paramPassthrough(in []Match) []Match {
	return in // parameters start canonical: the caller owns the buffer's order
}

func paramAppendNeedsSort(buf []Match, m Match) []Match {
	buf = append(buf, m) // appending clears the parameter's canonical mark
	return buf           // want `did not pass through a canonicalizer`
}

func intoVariant(in, buf []Match) []Match {
	base := len(buf)
	buf = append(buf, in...)
	cluster.SortMatches(buf[base:]) // region sort re-canonicalizes buf
	return buf
}

func suppressedReturn(in []Match) []Match {
	out := append([]Match{}, in...)
	//lint:vsmart-allow canonicalorder fixture: caller contractually re-sorts this copy
	return out
}

func stale() []Match {
	//lint:vsmart-allow canonicalorder nothing below returns out of order // want `unused //lint:vsmart-allow canonicalorder suppression`
	return nil
}

// []Neighbor returns are held to the same canonical-order rule.

func badNeighbors(in []Neighbor) []Neighbor {
	out := append([]Neighbor{}, in...)
	return out // want `returning a \[\]Neighbor that did not pass through a canonicalizer`
}

func goodNeighbors(in []Neighbor) []Neighbor {
	out := append([]Neighbor{}, in...)
	SortNeighborsByName(out)
	return out
}

func neighborSliced(in []Neighbor, k int) []Neighbor {
	out := append([]Neighbor{}, in...)
	cluster.SortNeighbors(out)
	if len(out) > k {
		out = out[:k] // re-slicing preserves canonical order
	}
	return out
}

func neighborPadAppend(out []Neighbor, name string) []Neighbor {
	out = append(out, Neighbor{Entity: name, Distance: 1}) // appending clears the mark
	return out                                             // want `returning a \[\]Neighbor that did not pass through a canonicalizer`
}

func matchSorterDoesNotCoverNeighbors(in []Neighbor, ms []Match) []Neighbor {
	out := append([]Neighbor{}, in...)
	cluster.SortMatches(ms) // sorting a different slice proves nothing about out
	return out              // want `returning a \[\]Neighbor that did not pass through a canonicalizer`
}
