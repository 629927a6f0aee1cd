// Package index exercises canonicalorder's delegation rule at the
// internal/index scope path.
package index

type Match struct {
	ID  uint64
	Sim float64
}

// SortMatches is the index package's canonicalizer.
func SortMatches(ms []Match) {}

// QueryAcross canonicalizes the region it appended.
func QueryAcross(k int, buf []Match, lists ...[]Match) []Match {
	base := len(buf)
	for _, l := range lists {
		buf = append(buf, l...)
	}
	SortMatches(buf[base:])
	return buf
}

func viaDelegation(lists [][]Match) []Match {
	return QueryAcross(3, nil, lists...)
}

func viaDelegationLocal(lists [][]Match) []Match {
	out := QueryAcross(3, nil, lists...)
	return out
}

func bad(in []Match) []Match {
	out := make([]Match, 0, len(in))
	out = append(out, in...)
	return out // want `did not pass through a canonicalizer`
}
