// Package index exercises canonicalorder's producer rule at the
// internal/index scope path.
package index

type Match struct {
	ID  uint64
	Sim float64
}

// SortMatches is the index package's canonicalizer.
func SortMatches(ms []Match) {}

// MergeTopKInto returns an already-canonical merge (a producer).
func MergeTopKInto(k int, buf []Match, lists ...[]Match) []Match {
	base := len(buf)
	for _, l := range lists {
		buf = append(buf, l...)
	}
	SortMatches(buf[base:])
	return buf
}

func viaProducer(lists [][]Match) []Match {
	return MergeTopKInto(3, nil, lists...)
}

func viaProducerLocal(lists [][]Match) []Match {
	out := MergeTopKInto(3, nil, lists...)
	return out
}

func bad(in []Match) []Match {
	out := make([]Match, 0, len(in))
	out = append(out, in...)
	return out // want `did not pass through a canonicalizer`
}
