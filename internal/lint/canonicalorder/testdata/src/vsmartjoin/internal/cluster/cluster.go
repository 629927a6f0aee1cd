// Package cluster mirrors the real package's query model — the one
// declaration of the public result types and their canonicalizers —
// and exercises the QueryResult rules.
package cluster

type Match struct {
	Entity     string
	Similarity float64
}

type Neighbor struct {
	Entity   string
	Distance float64
}

type QueryResult struct {
	Matches   []Match
	Neighbors []Neighbor
}

// SortMatches and SortNeighbors are the public canonicalizers.
func SortMatches(ms []Match)      {}
func SortNeighbors(ns []Neighbor) {}

func merged(per []QueryResult) QueryResult {
	out := QueryResult{Matches: []Match{}} // a literal holding no elements is canonical
	for _, r := range per {
		out.Matches = append(out.Matches, r.Matches...) // appending to a field clears the mark
	}
	SortMatches(out.Matches) // sorting a field re-canonicalizes the variable
	out.Matches = out.Matches[:1]
	return out
}

func mergedUnsorted(per []QueryResult) QueryResult {
	out := QueryResult{Neighbors: []Neighbor{}}
	for _, r := range per {
		out.Neighbors = append(out.Neighbors, r.Neighbors...)
	}
	return out // want `returning a QueryResult that did not pass through a canonicalizer`
}

func emptyOnError(fail bool) (QueryResult, error) {
	if fail {
		return QueryResult{}, nil
	}
	return QueryResult{Matches: []Match{}}, nil
}

func literalWithElements(m Match) QueryResult {
	return QueryResult{Matches: []Match{m}} // want `returning a QueryResult that did not pass through a canonicalizer`
}

func resultDelegation(per []QueryResult) QueryResult {
	return merged(per) // the callee is held to the same rule
}
