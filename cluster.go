package vsmartjoin

import (
	"context"

	"vsmartjoin/internal/cluster"
)

// ErrClusterUnavailable tags Cluster errors caused by unreachable or
// failing nodes — a partition with no live replica, a write that
// missed its quorum — as opposed to invalid requests. Check with
// errors.Is.
var ErrClusterUnavailable = cluster.ErrUnavailable

// ClusterOptions configures NewCluster: the topology Nodes [][]string
// (Nodes[p] lists partition p's replica base URLs, e.g.
// "http://10.0.0.7:8321"), and the time.Duration knobs Timeout (per node
// request, default 5s), HedgeAfter (default 100ms), HealthEvery and
// RepairEvery (background cadences, default 2s and 5s; negative turns
// hedging or that loop off).
type ClusterOptions = cluster.Config

// Cluster is a client for a multi-node vsmartjoind deployment, the
// router the daemon's -cluster mode runs: it mirrors Index's Apply and
// Query surface and its conveniences (a non-positive k asks for
// nothing), writing each entity to its owner partition at majority
// quorum and scattering each query to one replica per partition, merged
// byte-identically to a single Index holding every entity. The router
// is stateless; internal/cluster holds the design.
type Cluster = cluster.Cluster

// NewCluster validates the topology and returns a router. No network
// calls happen here; nodes still booting are discovered by the health
// loop and by traffic.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// BatchEntry is one entity of an Index's or a Cluster's AddBatch:
// {Entity string; Elements map[string]uint32}, a name with its element
// multiplicities, the same shape Add takes.
type BatchEntry = cluster.BatchEntry

// PartitionOfEntity reports which partition of an n-partition cluster
// owns an entity name — the routing function writes follow and
// BuildClusterFiles carves bulk-built corpora with.
func PartitionOfEntity(entity string, n int) int { return cluster.PartitionOf(entity, n) }

// WithRequestID returns a context carrying a request ID that the
// cluster client sends inside every node request's frame, where the
// node puts it back on the context it answers under — how the HTTP
// router makes one logical query greppable across its own and every
// node's logs. The router accepts the ID, and echoes it, on the
// X-Vsmart-Request-Id header of its public edge.
func WithRequestID(ctx context.Context, id string) context.Context {
	return cluster.WithRequestID(ctx, id)
}

// ClusterNodeStatus is one node's row in ClusterStats: its address and
// partition, the router's latest health observation, and the readiness
// counters (generation, entities, mutations) last read from
// the node — the signals that expose a stale replica.
type ClusterNodeStatus = cluster.NodeStatus

// ClusterStats is the router's view of the cluster: topology and
// traffic counters (Partitions, Queries, Hedges, HedgeWins, Failovers,
// WriteFails, Repairs), the RepairBacklog owed right now, WriteLatency
// and QueryLatency digests, and per-node status (Nodes).
type ClusterStats = cluster.Stats

// ClusterMetrics is the full-resolution capture of a Cluster router's
// latency histograms (Write, Query) behind ClusterStats' digests.
type ClusterMetrics = cluster.Metrics
