// Package cluster is the multi-node serving layer: a stateless query
// router that treats N vsmartjoind processes as partitions of one
// logical similarity index. A Cluster scatters a query across node
// daemons and merges their answers, the same partition/merge structure
// the paper's sharding algorithm uses for the batch join; partitioning
// happens here, between processes, and never inside a node. The public
// vsmartjoin.Cluster, ClusterOptions, ClusterStats and ClusterMetrics
// are aliases of Cluster, Config, Stats and Metrics: one router type.
//
// # The router↔node hop
//
// Each call to a node is one internal/frame frame carrying an
// internal/codec payload and the request ID (peer.go: the schema and the
// node's loop; client.go: the router's pool), on a persistent connection
// opened by an HTTP/1.1 Upgrade on the node's own listener
// (GET /peer → 101). JSON stays at the nodes' public edge.
//
// # Topology
//
// A cluster is a static grid of P partitions × R replicas. Every
// entity belongs to exactly one partition, chosen by hashing its NAME
// (FNV-64a folded through shard.ShardOf's splitmix64 finalizer — see
// PartitionOf), so any router instance, with no state at all, routes
// the same entity to the same partition. Each node in a partition's
// replica set holds the complete multisets of that partition's
// entities, which keeps every query exact: per-node answers are
// disjoint across partitions and their union (or top-k merge) equals
// the single-index answer.
//
// # Writes
//
// Apply (mutate.go holds the mutation model and the method) groups a
// batch by owner partition; each group goes to all R replicas of its
// partition in parallel and succeeds once a majority (R/2+1) of them
// acknowledge it. Before any request starts, the group is entered in
// each replica's write ledger (repair.go), which fixes the write's place
// in every replica's order and keeps its ops owed until that replica
// acknowledges them: a replica's request goes out only after its
// earlier requests for the same entities have ended, and the
// anti-entropy pass re-drives whatever a replica still owes. A write that
// misses quorum returns an error, but — as in any quorum system — it
// may still have applied on a minority of replicas, and anti-entropy
// will complete rather than undo it: "error" means "not guaranteed
// applied", never "guaranteed not applied".
//
// # Queries
//
// Query (query.go holds the query model, router.go the method) asks ONE
// replica per partition (healthy replicas preferred, chosen
// round-robin), all under one deadline, the per-node timeout. The
// calling goroutine writes the request to every partition, then reads
// the replies in turn; a partition starts goroutines only when its
// attempt fails, its replica has no idle connection, or its reply has
// not begun by HedgeAfter. A replica that fails is immediately failed
// over to the next; a replica that is merely slow is hedged: after
// HedgeAfter the same query is fired at the next replica and the first
// answer wins. Per-partition results merge under the canonical public
// ordering (similarity descending — for kNN distance ascending — entity
// name ascending), which is a pure function of the stored (name,
// multiset) pairs — so the merged answer is byte-identical to a single
// index holding every entity, regardless of P, R, or which replica
// answered.
//
// A query needs one live replica per partition; a write needs a
// majority of the owner partition. With R=2 a single dead node
// therefore stops writes to its partition (majority of 2 is 2) while
// queries keep flowing — the deliberate, conservative default of
// majority quorums.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsmartjoin/internal/metrics"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/shard"
)

// ErrUnavailable tags errors caused by unreachable or failing nodes —
// a partition with no live replica, a write that missed quorum. The
// HTTP layer maps it to 503 so load balancers can tell "cluster
// degraded" from "bad request".
var ErrUnavailable = errors.New("cluster unavailable")

// Defaults for the zero Config fields.
const (
	DefaultTimeout     = 5 * time.Second
	DefaultHedgeAfter  = 100 * time.Millisecond
	DefaultHealthEvery = 2 * time.Second
	DefaultRepairEvery = 5 * time.Second
)

// Config describes a cluster to New (vsmartjoin.ClusterOptions is an
// alias).
type Config struct {
	// Nodes is the topology: Nodes[p] lists the base URLs of partition
	// p's replicas (e.g. "http://10.0.0.7:8321"). A URL without a
	// scheme gets "http://". At least one partition with at least one
	// replica is required; partitions may have different replica counts
	// (each uses its own majority).
	Nodes [][]string

	// Timeout bounds every single node request (default DefaultTimeout).
	Timeout time.Duration

	// HedgeAfter is how long a query attempt may run before the same
	// query is hedged to the next replica of the partition (default
	// DefaultHedgeAfter). Negative disables hedging; failover on
	// outright errors happens regardless.
	HedgeAfter time.Duration

	// HealthEvery is the background /readyz polling cadence (default
	// DefaultHealthEvery; negative disables the loop — node health is
	// then tracked from live traffic and explicit CheckNow calls only).
	HealthEvery time.Duration

	// RepairEvery is the background anti-entropy cadence (default
	// DefaultRepairEvery; negative disables the loop — pending repair
	// ops are then only re-driven by explicit RepairNow calls).
	RepairEvery time.Duration
}

// node is one member: its base URL, its partition, its connections and
// its latest observed health.
type node struct {
	addr      string
	partition int
	pool      *peerPool

	mu      sync.Mutex
	healthy bool // last contact succeeded (starts true: unknown ≈ worth trying)
	err     string
	checked time.Time
	ready   Readiness

	pending map[string]owed // the write ledger (repair.go): entity → latest op issued, until acked
}

// Readiness is one node's readiness — its /readyz counters, which the
// router reads over the peer hop — used to detect stale replicas.
type Readiness struct {
	Ready      bool   `json:"ready"`
	Measure    string `json:"measure"`
	Generation uint64 `json:"generation"`
	Entities   int    `json:"entities"`
	Mutations  int64  `json:"mutations"`
}

// Cluster is the router (the public vsmartjoin.Cluster is an alias):
// a client of the node grid that mirrors an Index's Apply/Query surface.
// Construct with New; Close stops the background loops.
type Cluster struct {
	parts   [][]*node    // [partition][replica]
	nodes   []*node      // flattened
	issuing []sync.Mutex // [partition]: held while a write enters its replicas' ledgers
	timeout time.Duration
	hedge   time.Duration

	rr       atomic.Uint64 // round-robin cursor for replica preference
	scatters sync.Pool     // of *scatter, a query's state

	queries    atomic.Int64
	hedges     atomic.Int64
	hedgeWins  atomic.Int64 // hedged attempts whose answer won the race
	failovers  atomic.Int64
	writeFails atomic.Int64
	repairs    atomic.Int64

	// writeLatency times quorum writes to decision (majority acked or
	// quorum lost — stragglers keep running but no longer count);
	// queryLatency times scatter-gather queries end to end.
	writeLatency metrics.Histogram
	queryLatency metrics.Histogram

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Metrics is the full-resolution capture of the router's latency
// histograms, for the /metrics endpoint; Stats digests the same
// distributions for /stats.
type Metrics struct {
	Write metrics.Snapshot
	Query metrics.Snapshot
}

// Metrics captures the router's latency histograms.
func (c *Cluster) Metrics() Metrics {
	return Metrics{Write: c.writeLatency.Snapshot(), Query: c.queryLatency.Snapshot()}
}

// New validates the topology and starts the health and repair loops
// (unless disabled). It performs no synchronous network calls: a
// cluster whose nodes are still booting constructs fine and converges
// as probes and traffic discover them.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no partitions")
	}
	c := &Cluster{
		issuing: make([]sync.Mutex, len(cfg.Nodes)),
		timeout: cfg.Timeout,
		hedge:   cfg.HedgeAfter,
		stop:    make(chan struct{}),
	}
	c.scatters.New = c.newScatter
	if c.timeout == 0 {
		c.timeout = DefaultTimeout
	}
	if c.hedge == 0 {
		c.hedge = DefaultHedgeAfter
	}
	seen := make(map[string]bool)
	for p, replicas := range cfg.Nodes {
		if len(replicas) == 0 {
			return nil, fmt.Errorf("cluster: partition %d has no replicas", p)
		}
		row := make([]*node, 0, len(replicas))
		for _, addr := range replicas {
			addr = normalizeAddr(addr)
			if addr == "" {
				return nil, fmt.Errorf("cluster: partition %d has an empty node address", p)
			}
			pool, err := newPeerPool(addr)
			if err != nil {
				return nil, fmt.Errorf("cluster: partition %d: node address %w", p, err)
			}
			if seen[pool.host] { // the address the router dials
				return nil, fmt.Errorf("cluster: node %s listed twice", addr)
			}
			seen[pool.host] = true
			n := &node{addr: addr, partition: p, pool: pool, healthy: true}
			row = append(row, n)
			c.nodes = append(c.nodes, n)
		}
		c.parts = append(c.parts, row)
	}

	healthEvery := cfg.HealthEvery
	if healthEvery == 0 {
		healthEvery = DefaultHealthEvery
	}
	repairEvery := cfg.RepairEvery
	if repairEvery == 0 {
		repairEvery = DefaultRepairEvery
	}
	if healthEvery > 0 {
		c.wg.Add(1)
		go c.loop(healthEvery, func(ctx context.Context) { c.CheckNow(ctx) })
	}
	if repairEvery > 0 {
		c.wg.Add(1)
		go c.loop(repairEvery, func(ctx context.Context) { c.RepairNow(ctx) })
	}
	return c, nil
}

// loop runs fn every interval until Close.
func (c *Cluster) loop(every time.Duration, fn func(context.Context)) {
	defer c.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			ctx, cancel := c.withTimeout(context.Background())
			fn(ctx)
			cancel()
		}
	}
}

// Close stops the background loops and closes the router's connections
// to its nodes, which ends the node loops serving them (a call in flight
// closes its connection when it ends); the nodes, independent daemons,
// keep running. Close is idempotent.
func (c *Cluster) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.stop)
	}
	c.wg.Wait()
	for _, n := range c.nodes {
		n.pool.close()
	}
}

// normalizeAddr trims whitespace and a trailing slash and defaults the
// scheme to http.
func normalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	addr = strings.TrimSuffix(addr, "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// PartitionOf is the one write-routing function: the partition owning
// an entity name in an n-partition cluster. The name is FNV-64a hashed
// and folded through shard.ShardOf's splitmix64 finalizer; carved
// cluster directories depend on that exact function, so it must not
// change. Routing by
// name — the only identity that exists outside a node — is what lets
// any number of stateless routers agree on ownership, and what
// BuildClusterFiles relies on to carve a bulk-built corpus into
// per-node directories the router will look for entities in.
func PartitionOf(entity string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(entity))
	return shard.ShardOf(multiset.ID(h.Sum64()), n)
}

// owner returns the replica row of the partition owning entity.
func (c *Cluster) owner(entity string) []*node {
	return c.parts[PartitionOf(entity, len(c.parts))]
}

// markHealthy records the outcome of any node contact; health flows
// from live traffic as much as from the background probe, so a node
// that starts failing is deprioritized on the very next query.
func (n *node) markHealthy(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.checked = time.Now()
	if err != nil {
		n.healthy = false
		n.err = err.Error()
		return
	}
	n.healthy = true
	n.err = ""
}

func (n *node) isHealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}
