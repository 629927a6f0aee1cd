package vsmartjoin

import "vsmartjoin/internal/metrics"

// LatencySummary is the JSON-friendly digest of a latency histogram:
// {Count uint64; MeanNs, P50Ns, P99Ns, P999Ns float64} (JSON "count",
// "mean_ns", "p50_ns", "p99_ns", "p999_ns"), the count and the
// mean/p50/p99/p999 in nanoseconds. Percentiles are extracted from
// log-spaced fixed buckets (internal/metrics), so each is accurate to
// about ±9% — distribution shape, not an exact order statistic. A zero
// Count means the summary is empty and the other fields are 0.
type LatencySummary = metrics.Summary

// SizeSummary is the JSON-friendly digest of a size distribution
// (records per batch, records per group commit): {Count uint64; Mean,
// P50, P99 float64} (JSON "count", "mean", "p50", "p99"), the count of
// observations, mean, and p50/p99 with LatencySummary's bucket accuracy
// caveat (power-of-two buckets, so within a factor of two). A zero
// Count means empty.
type SizeSummary = metrics.SizeSummary

// IndexMetrics is the full-resolution capture of an Index's latency
// histograms — what the /metrics endpoint (internal/httpd) renders as
// Prometheus bucket series. IndexStats carries the same distributions
// digested to LatencySummary; this form keeps every bucket so an
// external aggregator can merge distributions across processes.
type IndexMetrics struct {
	// Query times uncached public queries (threshold, entity, top-k)
	// end to end, sampled one query in eight per pooled query buffer so
	// the timing itself stays off the hot path; cache hits are counted
	// in IndexStats but not timed.
	Query metrics.Snapshot
	// WALAppend and WALFsync are durability stalls of the write-ahead
	// log; both are empty for a volatile index.
	WALAppend metrics.Snapshot
	WALFsync  metrics.Snapshot
	// WALCommitWait is how long acknowledged mutations waited for the
	// group commit covering them — the latency cost of DurabilitySync,
	// paid outside the index's locks. Empty under DurabilityOS.
	WALCommitWait metrics.Snapshot
	// WALBatch is the records-per-append distribution (how large the
	// batches arriving at the log are, single mutations included);
	// WALGroupCommit is the records-per-fsync distribution of the group
	// commits (the amortization they achieve).
	WALBatch       metrics.SizeSnapshot
	WALGroupCommit metrics.SizeSnapshot
	// WALRecords counts every record appended and WALFsyncs every
	// fsync issued; their ratio inverted —
	// WALFsyncs/WALRecords — is the fsyncs-per-mutation cost the
	// group-commit layer is amortizing down.
	WALRecords int64
	WALFsyncs  int64
}

// Metrics captures the index's latency histograms.
func (ix *Index) Metrics() IndexMetrics {
	m := IndexMetrics{Query: ix.queryLatency.Snapshot()}
	if ix.log == nil {
		return m
	}
	lm := ix.log.Metrics()
	m.WALAppend = lm.Append.Snapshot()
	m.WALFsync = lm.Fsync.Snapshot()
	m.WALFsyncs = int64(m.WALFsync.Count)
	m.WALCommitWait = lm.CommitWait.Snapshot()
	m.WALBatch = lm.Batch.Snapshot()
	m.WALGroupCommit = lm.GroupCommit.Snapshot()
	m.WALRecords = lm.Records.Load()
	return m
}
