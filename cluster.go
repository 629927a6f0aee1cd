package vsmartjoin

import (
	"context"
	"errors"
	"time"

	"vsmartjoin/internal/cluster"
)

// ErrClusterUnavailable tags Cluster errors caused by unreachable or
// failing nodes — a partition with no live replica, a write that
// missed its quorum — as opposed to invalid requests. Check with
// errors.Is.
var ErrClusterUnavailable = cluster.ErrUnavailable

// ClusterOptions configures NewCluster.
type ClusterOptions struct {
	// Nodes is the topology: Nodes[p] lists the base URLs of partition
	// p's replica daemons (e.g. "http://10.0.0.7:8321"; a URL without a
	// scheme gets "http://"). Every replica of a partition holds the
	// same entities; different partitions hold disjoint entity sets,
	// carved by a hash of the entity name (see PartitionOfEntity).
	Nodes [][]string

	// Timeout bounds every single node request (default 5s).
	Timeout time.Duration

	// HedgeAfter is how long a per-partition query attempt may run
	// before the same query is hedged to another replica (default
	// 100ms; negative disables hedging).
	HedgeAfter time.Duration

	// HealthEvery is the background node-health polling cadence
	// (default 2s; negative disables the loop).
	HealthEvery time.Duration

	// RepairEvery is the background anti-entropy cadence re-driving
	// writes that missed replicas (default 5s; negative disables the
	// loop — repairs then run only via Repair).
	RepairEvery time.Duration
}

// Cluster is a client for a multi-node vsmartjoind deployment: it
// mirrors Index's Apply/Query surface, but routes every call to a grid
// of partitioned, replicated daemon nodes — over one binary hop, framed
// requests on a few persistent connections per node, opened by an
// HTTP/1.1 Upgrade on the node's own listener. Writes go to
// the entity's owner partition and succeed at majority quorum; queries
// scatter to one replica per partition and merge exactly, so results
// are byte-identical to a single Index holding every entity. The
// router itself is stateless — any number of Cluster clients (and
// vsmartjoind -cluster router daemons) may front the same nodes.
// See internal/cluster for the full design.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster validates the topology and returns a router. No network
// calls happen here; nodes still booting are discovered by the health
// loop and by traffic.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("vsmartjoin: cluster needs at least one partition of nodes")
	}
	inner, err := cluster.New(cluster.Config{
		Partitions:  opts.Nodes,
		Timeout:     opts.Timeout,
		HedgeAfter:  opts.HedgeAfter,
		HealthEvery: opts.HealthEvery,
		RepairEvery: opts.RepairEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Close stops the router's background health and repair loops and
// closes its connections to the nodes, which ends the nodes' loops
// serving them; a call still in flight closes its connection when it
// finishes. The nodes themselves are independent daemons and keep
// running.
func (c *Cluster) Close() { c.inner.Close() }

// PartitionOfEntity reports which partition of an n-partition cluster
// owns an entity name — the routing function writes follow and
// BuildClusterFiles carves bulk-built corpora with.
func PartitionOfEntity(entity string, n int) int { return cluster.PartitionOf(entity, n) }

// Apply is the one write method of a Cluster: an ordered batch of
// mutations driven as one quorum write per touched partition. The batch
// is grouped by owner partition (order preserved; mutations of one
// entity always share a partition, so per-entity order survives); each
// partition's replicas receive their group as a single write request,
// which under ingest storms replaces a round trip and a per-node WAL
// commit per mutation with one per group. Each group succeeds or
// fails at majority quorum independently, and the returned error joins
// the groups that missed it (ErrClusterUnavailable). An error means the
// group is NOT guaranteed applied — though, as in any quorum system, a
// minority of replicas may still hold it, and the anti-entropy pass
// completes it rather than undoing it. A mutation no node would accept
// (an empty name, an add without a nonzero count, an unknown Op) fails
// the whole batch before anything is sent.
//
// The result reports, per mutation, whether its group reached quorum —
// except for a removal that was alone in its group, where it reports
// whether any acknowledging replica still had the entity. Flags are
// meaningful only when err is nil: a group that missed quorum reports
// false whatever its replicas answered. Trace values
// on ctx (WithRequestID) propagate onto every node request; cancelling
// ctx does not abort the write — quorum bookkeeping must outlive an
// impatient caller.
func (c *Cluster) Apply(ctx context.Context, muts []Mutation) ([]bool, error) {
	return c.inner.Apply(ctx, muts)
}

// Add is Apply for one OpAdd mutation.
func (c *Cluster) Add(entity string, counts map[string]uint32) error {
	_, err := c.Apply(context.Background(), []Mutation{{Op: OpAdd, Entity: entity, Elements: counts}})
	return err
}

// Remove is Apply for one OpRemove mutation, reporting whether any
// acknowledging replica still had the entity — meaningful only when err
// is nil; a removal that missed quorum reports false.
func (c *Cluster) Remove(entity string) (bool, error) {
	had, err := c.Apply(context.Background(), []Mutation{{Op: OpRemove, Entity: entity}})
	return len(had) > 0 && had[0], err
}

// AddBatch is Apply for a batch of OpAdd mutations.
func (c *Cluster) AddBatch(entries []BatchEntry) error {
	_, err := c.Apply(context.Background(), addMutations(entries))
	return err
}

// Query answers q over the whole cluster — exactly the answer, byte for
// byte, a single Index holding every entity gives (Index.Query
// documents the kinds), including a kNN list's non-overlapping tail at
// distance exactly 1. Cancelling ctx reels in the scatter, and trace
// values (WithRequestID) propagate onto every node request. Besides a
// malformed query or an unknown Entity it fails, with
// ErrClusterUnavailable, when a partition has no answering replica:
// never a partial answer.
func (c *Cluster) Query(ctx context.Context, q Query) (QueryResult, error) {
	return c.inner.Query(ctx, q)
}

// QueryThreshold is Query for a KindThreshold query by elements.
func (c *Cluster) QueryThreshold(counts map[string]uint32, t float64) ([]Match, error) {
	res, err := c.Query(context.Background(), Query{Elements: counts, Threshold: t})
	return res.Matches, err
}

// QueryEntity is Query for a KindThreshold query by indexed entity.
func (c *Cluster) QueryEntity(entity string, t float64) ([]Match, error) {
	res, err := c.Query(context.Background(), Query{Entity: entity, Threshold: t})
	return res.Matches, err
}

// QueryTopK is Query for a KindTopK query by elements.
func (c *Cluster) QueryTopK(counts map[string]uint32, k int) ([]Match, error) {
	res, err := c.Query(context.Background(), Query{Elements: counts, Kind: KindTopK, K: k})
	return res.Matches, err
}

// QueryKNN is Query for a KindKNN query by elements.
func (c *Cluster) QueryKNN(counts map[string]uint32, k int) ([]Neighbor, error) {
	res, err := c.Query(context.Background(), Query{Elements: counts, Kind: KindKNN, K: k})
	return res.Neighbors, err
}

// QueryKNNEntity is Query for a KindKNN query by indexed entity.
func (c *Cluster) QueryKNNEntity(entity string, k int) ([]Neighbor, error) {
	res, err := c.Query(context.Background(), Query{Entity: entity, Kind: KindKNN, K: k})
	return res.Neighbors, err
}

// WithRequestID returns a context carrying a request ID that the
// cluster client sends inside every node request's frame, where the
// node puts it back on the context it answers under — how the HTTP
// router makes one logical query greppable across its own and every
// node's logs. The router accepts the ID, and echoes it, on the
// X-Vsmart-Request-Id header of its public edge.
func WithRequestID(ctx context.Context, id string) context.Context {
	return cluster.WithRequestID(ctx, id)
}

// Snapshot asks every node to cut a durable snapshot (nodes running
// without a data dir refuse). It is an operational convenience, not a
// cluster-wide consistency point.
func (c *Cluster) Snapshot() error { return c.inner.Snapshot() }

// CheckHealth polls every node's readiness endpoint once and updates
// the health table queries prefer replicas by. The background health
// loop does the same on its cadence.
func (c *Cluster) CheckHealth() { c.inner.CheckNow(context.Background()) }

// Repair runs one anti-entropy pass now: every node that still owes
// writes gets them re-driven in batches. The background repair loop
// does the same on its cadence.
func (c *Cluster) Repair() { c.inner.RepairNow(context.Background()) }

// PendingRepairs reports the number of writes replicas owe: each counts
// from the moment the router issues it to a replica until that replica
// acknowledges it, so a write still in flight to a straggler is owed
// too — zero once every replica has acknowledged every write.
func (c *Cluster) PendingRepairs() int { return c.inner.PendingRepairs() }

// Ready reports whether every partition can answer queries (one
// healthy replica) and accept writes (a healthy majority), from the
// router's current health table.
func (c *Cluster) Ready() (queries, writes bool) { return c.inner.Ready() }

// ClusterNodeStatus is one node's row in ClusterStats: its address and
// partition, the router's latest health observation, and the readiness
// counters (generation, entities, mutations, shards) last read from
// the node — the signals that expose a stale replica.
type ClusterNodeStatus = cluster.NodeStatus

// ClusterStats is the router's view of the cluster: topology, traffic
// counters (hedged and failed-over query attempts, write quorum
// failures, repairs re-driven), latency digests, and per-node status.
type ClusterStats struct {
	Partitions int   `json:"partitions"`
	Queries    int64 `json:"queries"`
	Hedges     int64 `json:"hedges"`
	// HedgeWins counts hedged attempts whose answer beat the primary's:
	// Hedges fired minus HedgeWins is pure wasted work, the signal for
	// tuning HedgeAfter.
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	WriteFails int64 `json:"write_fails"`
	Repairs    int64 `json:"repairs"`
	// RepairBacklog is the current total of writes owed across all
	// nodes (the sum of per-node PendingRepair): each op counts from issue
	// until its replica acknowledges it, so a straggler's in-flight ops
	// and a failed replica's missed ones alike; Repairs counts ops
	// already re-driven.
	RepairBacklog int `json:"repair_backlog"`

	// WriteLatency times quorum writes to their decision point (majority
	// acked, or quorum lost); QueryLatency times scatter-gather queries
	// end to end, hedges and failovers included.
	WriteLatency LatencySummary `json:"write_latency"`
	QueryLatency LatencySummary `json:"query_latency"`

	Nodes []ClusterNodeStatus `json:"nodes"`
}

// Stats reports the router's counters and health table. It makes no
// network calls; node fields are as of the last probe or contact.
func (c *Cluster) Stats() ClusterStats {
	s := c.inner.Stats()
	m := c.inner.Metrics()
	return ClusterStats{
		Partitions:    s.Partitions,
		Queries:       s.Queries,
		Hedges:        s.Hedges,
		HedgeWins:     s.HedgeWins,
		Failovers:     s.Failovers,
		WriteFails:    s.WriteFails,
		Repairs:       s.Repairs,
		RepairBacklog: s.RepairBacklog,
		WriteLatency:  summarize(m.Write),
		QueryLatency:  summarize(m.Query),
		Nodes:         s.Nodes,
	}
}
