package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsMonotonic(t *testing.T) {
	prev := float64(0)
	for i := 0; i < NumBuckets; i++ {
		b := BucketBound(i)
		if i == NumBuckets-1 {
			if !math.IsInf(b, 1) {
				t.Fatalf("last bucket bound = %v, want +Inf", b)
			}
			break
		}
		if b <= prev {
			t.Fatalf("bucket %d bound %v not above previous %v", i, b, prev)
		}
		prev = b
	}
	if got := BucketBound(0); got != 256 {
		t.Fatalf("first bound = %v, want 256ns", got)
	}
	// Four buckets per octave: bound(i+subOctave) must be exactly
	// double bound(i) up to rounding.
	for i := 0; i+subOctave < NumBuckets-1; i++ {
		lo, hi := BucketBound(i), BucketBound(i+subOctave)
		if ratio := hi / lo; ratio < 1.99 || ratio > 2.01 {
			t.Fatalf("bound(%d)/bound(%d) = %v, want ~2", i+subOctave, i, ratio)
		}
	}
}

func TestBucketOfBoundaries(t *testing.T) {
	// An observation exactly at a bound lands in that bucket
	// (inclusive upper bound); one past it lands in the next.
	for i := 0; i < NumBuckets-2; i++ {
		bound := uint64(BucketBound(i))
		if got := bucketOf(bound); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d (at bound)", bound, got, i)
		}
		if got := bucketOf(bound + 1); got != i+1 {
			t.Fatalf("bucketOf(%d) = %d, want %d (past bound)", bound+1, got, i+1)
		}
	}
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d, want 0", got)
	}
	// Far past the last finite bound: the overflow bucket.
	if got := bucketOf(math.MaxUint64); got != NumBuckets-1 {
		t.Fatalf("bucketOf(max) = %d, want %d", got, NumBuckets-1)
	}
}

func TestObservePlacement(t *testing.T) {
	var h Histogram
	h.Observe(300 * time.Nanosecond) // between 256 and ~304 → bucket 1
	h.Observe(time.Millisecond)
	h.Observe(-time.Second) // clamps to 0 → bucket 0
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("clamped negative observation not in bucket 0: %v", s.Buckets)
	}
	want := bucketOf(uint64(time.Millisecond))
	if s.Buckets[want] != 1 {
		t.Fatalf("1ms observation not in bucket %d", want)
	}
	if s.Sum != uint64(300+time.Millisecond) {
		t.Fatalf("sum = %d, want %d", s.Sum, uint64(300+time.Millisecond))
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over 1..1000 µs: quantiles are
	// known up to bucket resolution (half a sub-octave ≈ ±9%).
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	checks := []struct {
		q, want float64 // want in ns
	}{
		{0.5, 500e3},
		{0.99, 990e3},
		{0.999, 999e3},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want*0.85 || got > c.want*1.15 {
			t.Errorf("q%g = %v ns, want within 15%% of %v", c.q, got, c.want)
		}
	}
	if got := (Snapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// All mass in one bucket: every quantile stays inside its bounds.
	var one Histogram
	for i := 0; i < 100; i++ {
		one.Observe(10 * time.Microsecond)
	}
	os := one.Snapshot()
	b := bucketOf(uint64(10 * time.Microsecond))
	lo, hi := BucketBound(b-1), BucketBound(b)
	for _, q := range []float64{0, 0.5, 1} {
		if got := os.Quantile(q); got < lo || got > hi {
			t.Errorf("single-bucket q%g = %v outside (%v, %v]", q, got, lo, hi)
		}
	}
	// Overflow-only distribution reports the last finite bound as floor.
	var over Histogram
	over.Observe(time.Hour)
	if got := over.Snapshot().Quantile(0.5); got != BucketBound(NumBuckets-2) {
		t.Errorf("overflow quantile = %v, want last finite bound %v", got, BucketBound(NumBuckets-2))
	}
}

func TestConcurrentWriters(t *testing.T) {
	// Run with -race: W writers hammer one histogram (plus a counter),
	// then the totals must balance exactly.
	const writers, perWriter = 8, 2000
	var h Histogram
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var sum uint64
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
	if c.Load() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Load(), writers*perWriter)
	}
}

func TestObserveSince(t *testing.T) {
	var h Histogram
	start := Now()
	time.Sleep(2 * time.Millisecond)
	h.ObserveSince(start)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if q := s.Quantile(0.5); q < float64(time.Millisecond) {
		t.Fatalf("observed %v ns, want >= 1ms", q)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
}

func TestSizeQuantile(t *testing.T) {
	var h SizeHistogram
	for _, n := range []uint64{0, 1, 1, 3, 3, 3, 5, 100, 1 << 40} {
		h.Observe(n)
	}
	s := h.Snapshot()
	// 0 and 1 share bucket 0, 3 rounds up to the bucket of 4, 5 to 8,
	// 100 to 128, and 2^40 overflows.
	want := map[int]uint64{0: 3, 2: 3, 3: 1, 7: 1, SizeNumBuckets - 1: 1}
	for i, c := range s.Buckets {
		if c != want[i] {
			t.Fatalf("bucket %d holds %d, want %d: %v", i, c, want[i], s.Buckets)
		}
	}
	if s.Count != 9 || s.Sum != 1<<40+116 {
		t.Fatalf("count %d sum %d", s.Count, s.Sum)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1},                   // the first bucket reports its bound
		{0.5, 2 * math.Sqrt2},    // rank 4.5: halfway through (2, 4], log-linearly
		{0.99, float64(1 << 31)}, // overflow: the last finite bound
		{1, float64(1 << 31)},
	} {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("q%g = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (SizeSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
