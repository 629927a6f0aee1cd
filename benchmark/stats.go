package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedMedian(s)
}

// percentile is the nearest-rank percentile of an ascending-sorted
// slice: the smallest sample with at least p of the samples at or below
// it. With fewer than 1/(1-p) samples it is the maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail levels a latency report may quote.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// highestTail picks the highest level of tailPercentiles that still has
// at least ten samples beyond it, the rule the choosing-metrics guide
// sets for quoting a tail. ok is false when even p90 does not qualify
// (fewer than 100 samples), in which case only a median is meaningful.
func highestTail(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so
// calibrate and compare judge a metric the way the driver does. It
// needs at least two values; fewer yield 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 3 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// slice is the digest of the operations that completed within one
// stretch of a window, corrected for the machine's slowdown over that
// stretch (see refProbe).
type slice struct {
	opsPerS float64
	p50Ms   float64
	p99Ms   float64
}

// sliceLen is the stretch a closed-loop window is cut into.
const sliceLen = 100 * time.Millisecond

// sliceWindow cuts a window's operations into consecutive slices of
// sliceLen by completion time and digests each, dividing its timings by
// the slowdown the reference probes at the slice's two edges saw.
// Operations finishing after the last whole slice are left out.
func sliceWindow(samples []opSample, refs []refSample, window time.Duration) []slice {
	n := int(window / sliceLen)
	lat := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.end / sliceLen); i < n {
			lat[i] = append(lat[i], float64(s.lat)/float64(time.Millisecond))
		}
	}
	// probes[i] are the probes begun within slice i, that is at its opening edge.
	probes := make([][]float64, n+1)
	for _, r := range refs {
		if i := int(r.at / sliceLen); i <= n {
			probes[i] = append(probes[i], slowdown(r.took))
		}
	}
	factor := 1.0
	out := make([]slice, 0, n)
	for i, l := range lat {
		// A client held up in one long operation skips an edge; the slice
		// then keeps the last factor seen.
		if edges := append(probes[i], probes[i+1]...); len(edges) > 0 {
			factor = mean(edges)
		}
		if len(l) == 0 {
			out = append(out, slice{}) // a stall: nothing completed, and that counts
			continue
		}
		sort.Float64s(l)
		out = append(out, slice{
			opsPerS: float64(len(l)) / sliceLen.Seconds() * factor,
			p50Ms:   sortedMedian(l) / factor,
			p99Ms:   percentile(l, 0.99) / factor,
		})
	}
	return out
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sortedMedian is median for a slice already sorted ascending.
func sortedMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
