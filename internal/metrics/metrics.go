// Package metrics is the one runtime-observability primitive layer of
// the engine: atomic counters and fixed-bucket latency histograms, built
// for the serving hot path.
//
// Design constraints, in order:
//
//   - Allocation-free on the hot path. Observe/Inc/Add touch only
//     atomics; no maps, no interfaces, no time formatting. The
//     zero-alloc guarantees of the query path (BenchmarkQueryThreshold,
//     BenchmarkQueryTopK at 0 allocs/op) must survive instrumentation.
//   - Lock-free and write-concurrent. Histograms are plain arrays of
//     atomic counters; any number of goroutines observe concurrently.
//     Reads (Snapshot) are not atomic across buckets — a snapshot taken
//     under concurrent writes can be off by in-flight observations,
//     which is fine for monitoring and cheap for writers.
//   - Mergeable. A Snapshot from every node or worker adds into one
//     distribution (Merge), because bucket boundaries are fixed and
//     identical everywhere — the property that lets the nodes and a
//     cluster router share one percentile pipeline.
//
// Buckets are log-spaced: four per octave (bounds grow by 2^(1/4) ≈
// 1.19), from 256ns up to ~17.6s, plus an overflow bucket. That bounds
// the relative quantile error by half a sub-octave (≈ ±9%) across the
// whole range — plenty for p50/p99/p999 monitoring — while keeping the
// histogram a fixed 1KiB of counters.
//
// Timing goes through Now/ObserveSince rather than callers touching
// time.Now directly: the hotpathmetrics analyzer (internal/lint) bans
// ad-hoc time.Now/time.Since accounting in internal/index, internal/
// shard, and internal/wal, so every hot-path duration demonstrably
// flows into a mergeable histogram instead of a one-off counter.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Bucket geometry. Durations are measured in nanoseconds. Bucket i
// spans (Bound(i-1), Bound(i)] with Bound(i) = minBound << (i/subOctave)
// scaled by 2^((i%subOctave)/subOctave); the last bucket is +Inf.
const (
	// subOctave is the number of buckets per doubling of the bound.
	subOctave = 4
	// minExp is the exponent of the first bound: 1<<8 = 256ns. Anything
	// faster lands in bucket 0 — sub-quarter-microsecond work is below
	// what a serving latency distribution needs to resolve.
	minExp = 8
	// octaves spans 256ns << 26 ≈ 17.6s; slower observations land in
	// the +Inf overflow bucket.
	octaves = 26
	// NumBuckets is the fixed bucket count of every Histogram, overflow
	// included.
	NumBuckets = octaves*subOctave + 1
)

// bounds holds the inclusive upper bound of every finite bucket in
// nanoseconds, precomputed once so Observe is one comparison ladder
// (binary search) over a fixed array.
var bounds = func() [NumBuckets - 1]uint64 {
	var b [NumBuckets - 1]uint64
	for i := range b {
		oct, sub := i/subOctave, i%subOctave
		bound := math.Exp2(float64(minExp+oct) + float64(sub)/subOctave)
		b[i] = uint64(math.Round(bound))
	}
	return b
}()

// BucketBound reports bucket i's inclusive upper bound in nanoseconds;
// the last bucket reports +Inf. Bounds are identical across every
// histogram in the process and across processes of the same build —
// what makes snapshots mergeable across nodes.
func BucketBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(bounds[i])
}

// bucketOf locates the bucket for a duration of ns nanoseconds.
func bucketOf(ns uint64) int {
	// Binary search over the fixed bounds: 7 comparisons, no branches on
	// data-dependent loop lengths beyond that.
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns > bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Histogram is a fixed-bucket latency histogram. The zero value is
// ready to use; embed it by value. All methods are safe for concurrent
// use; Observe performs three atomic adds and no allocation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // total observed nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero (a
// monotonic-clock read can regress across VM migrations; losing one
// sample to bucket 0 beats panicking).
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Stamp is an opaque start time from Now, consumed by ObserveSince.
type Stamp struct{ t time.Time }

// Now returns a start stamp. It is the sanctioned clock read of the
// hot path: internal/index, internal/shard, and internal/wal are
// lint-banned from calling time.Now/time.Since directly, so every
// duration measured there provably ends in a Histogram.
func Now() Stamp { return Stamp{t: time.Now()} }

// ObserveSince records the time elapsed since s.
func (h *Histogram) ObserveSince(s Stamp) { h.Observe(time.Since(s.t)) }

// Snapshot returns a point-in-time copy of the distribution. Under
// concurrent writers the copy is not a consistent cut — counts may be
// off by the observations in flight — which monitoring tolerates.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Snapshot is a frozen histogram: mergeable, serializable, and the
// input to percentile extraction. The zero value is an empty
// distribution.
type Snapshot struct {
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum_ns"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Merge adds o's observations into s — the cross-node fold. Bucket boundaries are fixed and shared, so merging is
// element-wise addition and percentiles of the merged snapshot are
// exactly the percentiles of the combined observation stream (up to
// bucket resolution).
func (s *Snapshot) Merge(o Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the q-quantile (q in [0,1]) of the distribution in
// nanoseconds, interpolated log-linearly inside the winning bucket. An
// empty distribution reports 0; a quantile landing in the overflow
// bucket reports the last finite bound (a floor, not a lie: the true
// value is at least that).
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the wanted observation under the
	// usual nearest-rank-with-interpolation convention.
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum+1e-9 < rank {
			continue
		}
		lo := float64(0)
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		hi := BucketBound(i)
		if math.IsInf(hi, 1) {
			return BucketBound(i - 1) // overflow: report the known floor
		}
		if lo == 0 {
			// First bucket: linear interpolation from zero.
			return hi * (rank - prev) / float64(c)
		}
		// Log-linear interpolation between the bucket's bounds.
		frac := (rank - prev) / float64(c)
		return lo * math.Exp2(frac*math.Log2(hi/lo))
	}
	return BucketBound(NumBuckets - 2)
}

// Mean returns the average observation in nanoseconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// SizeNumBuckets is the fixed bucket count of every SizeHistogram:
// power-of-two bounds 1, 2, 4, ..., 2^31, plus an overflow bucket.
const SizeNumBuckets = 33

// SizeBucketBound reports size bucket i's inclusive upper bound; the
// last bucket reports +Inf. Like the latency bounds, they are fixed
// and shared, so size snapshots merge across nodes.
func SizeBucketBound(i int) float64 {
	if i >= SizeNumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << i)
}

// SizeHistogram is a fixed-bucket histogram of small counts — batch
// sizes, group-commit fan-in — where the latency geometry's 256-unit
// first bucket would flatten the whole distribution. Buckets double
// from 1, so sizes 1..2^31 resolve to within a factor of two. The zero
// value is ready to use; Observe is three atomic adds, no allocation.
type SizeHistogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [SizeNumBuckets]atomic.Uint64
}

// Observe records one size (0 clamps into the first bucket).
func (h *SizeHistogram) Observe(n uint64) {
	i := bits.Len64(n) // 1 -> 1, 2 -> 2, 3..4 -> 3, ...
	if i > 0 {
		i--
		if n > 1<<i { // not an exact power of two: round up a bucket
			i++
		}
	}
	if i >= SizeNumBuckets {
		i = SizeNumBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// Snapshot returns a point-in-time copy of the size distribution; like
// Histogram.Snapshot it is not a consistent cut under concurrent
// writers, which monitoring tolerates.
func (h *SizeHistogram) Snapshot() SizeSnapshot {
	var s SizeSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// SizeSnapshot is a frozen SizeHistogram: mergeable, serializable, and
// the input to quantile extraction. The zero value is empty.
type SizeSnapshot struct {
	Count   uint64                 `json:"count"`
	Sum     uint64                 `json:"sum"`
	Buckets [SizeNumBuckets]uint64 `json:"buckets"`
}

// Merge adds o's observations into s.
func (s *SizeSnapshot) Merge(o SizeSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed size (0 when empty).
func (s SizeSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile of the size distribution,
// interpolated log-linearly inside the winning bucket (the same
// convention as the latency Snapshot).
func (s SizeSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum+1e-9 < rank {
			continue
		}
		hi := SizeBucketBound(i)
		if math.IsInf(hi, 1) {
			return SizeBucketBound(i - 1)
		}
		if i == 0 {
			return hi
		}
		lo := SizeBucketBound(i - 1)
		frac := (rank - prev) / float64(c)
		return lo * math.Exp2(frac*math.Log2(hi/lo))
	}
	return SizeBucketBound(SizeNumBuckets - 2)
}
