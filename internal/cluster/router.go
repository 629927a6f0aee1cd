package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"vsmartjoin/internal/metrics"
)

// Query answers q exactly as a single Index over the same entities
// would. An entity-relative query first reads the entity's multiset
// from its owner partition; the element query is then
// scattered to one replica per partition and the per-partition answers
// merged: concatenate, sort canonically, truncate to K, with the query
// entity itself dropped (everything else, perfect duplicates of it
// included, is retained). The merge is exact because every node's list
// is its partition's true K best under the same canonical total order —
// the kNN lists include the non-overlap pad — so any entity of the
// global K best is necessarily inside its own partition's list; a
// dropped entity costs its owner one slot, which asking every node for
// K+1 covers. Node distances pass through untouched: recomputing them
// from similarities here would not round-trip (1 − (1 − d) ≠ d below
// 0.5) and break byte-identity with a single Index.
//
// Cancelling ctx reels in the scatter, and trace values (WithRequestID)
// propagate onto every node request. Besides a malformed query or an
// unknown Entity, Query fails with ErrUnavailable when a partition has
// no answering replica: never a partial answer.
func (c *Cluster) Query(ctx context.Context, q Query) (QueryResult, error) {
	if err := CheckQuery(&q); err != nil {
		return QueryResult{}, fmt.Errorf("cluster: %w", err)
	}
	elements := q.Elements
	if q.Entity != "" {
		var err error
		if elements, err = c.fetchEntity(ctx, q.Entity); err != nil {
			return QueryResult{}, err
		}
	}
	ask := q.K
	if q.Entity != "" {
		ask++ // the slot the query entity occupies in its owner's list
	}
	// The answer's list is non-nil even when empty, like a single Index's.
	out := QueryResult{Matches: []Match{}}
	req := peerRequest{op: peerQuery, query: Query{Elements: elements, Kind: q.Kind}}
	switch q.Kind {
	case KindThreshold:
		req.query.Threshold = q.Threshold
	case KindTopK:
		req.query.K = ask
	case KindKNN:
		out = QueryResult{Neighbors: []Neighbor{}}
		req.query.K = ask
	}
	if len(elements) == 0 && q.Kind != KindKNN {
		// A single Index answers an empty similarity query with no
		// matches: no node needs asking.
		return out, nil
	}
	per, err := c.scatter(ctx, &req)
	if err != nil {
		return QueryResult{}, err
	}
	for _, r := range per {
		for _, m := range r.Matches {
			if m.Entity != q.Entity {
				out.Matches = append(out.Matches, m)
			}
		}
		for _, n := range r.Neighbors {
			if n.Entity != q.Entity {
				out.Neighbors = append(out.Neighbors, n)
			}
		}
	}
	SortMatches(out.Matches)
	SortNeighbors(out.Neighbors)
	if q.Kind != KindThreshold {
		out.Matches = out.Matches[:min(len(out.Matches), q.K)]
		out.Neighbors = out.Neighbors[:min(len(out.Neighbors), q.K)]
	}
	return out, nil
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

// QueryTopK is Query for a KindTopK query by elements; as on an Index, a
// non-positive k asks for nothing and returns nil.
func (c *Cluster) QueryTopK(counts map[string]uint32, k int) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	res, err := c.Query(context.Background(), Query{Elements: counts, Kind: KindTopK, K: k})
	return res.Matches, err
}

// QueryKNN is Query for a KindKNN query by elements; a non-positive k
// asks for nothing and returns nil.
func (c *Cluster) QueryKNN(counts map[string]uint32, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	res, err := c.Query(context.Background(), Query{Elements: counts, Kind: KindKNN, K: k})
	return res.Neighbors, err
}

// QueryKNNEntity is Query for a KindKNN query by indexed entity; a
// non-positive k asks for nothing and returns nil.
func (c *Cluster) QueryKNNEntity(entity string, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	res, err := c.Query(context.Background(), Query{Entity: entity, Kind: KindKNN, K: k})
	return res.Neighbors, err
}

// fetchEntity reads an entity's stored multiset from its owner
// partition, failing over across replicas. Each attempt runs under its
// own deadline — with a shared one, a hung first replica would eat the
// whole budget and turn the failover into a formality.
func (c *Cluster) fetchEntity(callerCtx context.Context, entity string) (map[string]uint32, error) {
	var errs []error
	req := peerRequest{op: peerEntity, name: entity}
	for _, n := range c.prefer(c.owner(entity)) {
		ctx, cancel := context.WithTimeout(callerCtx, c.timeout)
		rep, err := c.call(ctx, n, &req)
		cancel()
		if err == nil {
			return rep.elements, nil
		}
		if strings404(err) {
			return nil, fmt.Errorf("cluster: entity %q not indexed", entity)
		}
		errs = append(errs, err)
	}
	return nil, fmt.Errorf("cluster: %w: entity %q owner partition unreachable: %w",
		ErrUnavailable, entity, errors.Join(errs...))
}

// strings404 reports whether a node error is the node's 404 — the
// entity genuinely absent, as opposed to the node being unreachable.
func strings404(err error) bool {
	var se StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// scatter fans one query request out to every partition in parallel —
// each through raceReplicas' failover and hedging — and returns the
// per-partition answers. Any partition with no answering replica fails
// the whole query: a partial answer would be silently wrong, the one
// thing the differential harness exists to prevent.
func (c *Cluster) scatter(ctx context.Context, req *peerRequest) ([]QueryResult, error) {
	c.queries.Add(1)
	start := metrics.Now()
	defer c.queryLatency.ObserveSince(start)
	per := make([]QueryResult, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for p := range c.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			per[p], errs[p] = c.raceReplicas(ctx, p, req)
		}(p)
	}
	wg.Wait()
	var bad []error
	for p, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Errorf("partition %d: %w", p, err))
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("cluster: %w: %w", ErrUnavailable, errors.Join(bad...))
	}
	return per, nil
}

// prefer orders a replica row for querying: healthy replicas first (in
// round-robin rotation so load spreads), then the unhealthy ones as a
// last resort — health information is advisory and possibly stale, so
// a "down" node is still worth a final attempt before the partition is
// declared unavailable.
func (c *Cluster) prefer(replicas []*node) []*node {
	out := make([]*node, 0, len(replicas))
	rot := int(c.rr.Add(1) - 1)
	var sick []*node
	for i := range replicas {
		n := replicas[(rot+i)%len(replicas)]
		if n.isHealthy() {
			out = append(out, n)
		} else {
			sick = append(sick, n)
		}
	}
	return append(out, sick...)
}

// raceReplicas runs one partition's request: first attempt on the
// preferred replica, immediate failover on error, and a hedged second
// attempt if the current one is slow. The first successful answer
// wins; cancelling the partition context reels the losers back in, and
// their connections are closed rather than pooled.
func (c *Cluster) raceReplicas(callerCtx context.Context, p int, req *peerRequest) (QueryResult, error) {
	order := c.prefer(c.parts[p])
	ctx, cancel := context.WithTimeout(callerCtx, c.timeout)
	defer cancel()

	type result struct {
		v      QueryResult
		err    error
		hedged bool // this attempt was a hedge, not the primary or a failover
	}
	results := make(chan result, len(order))
	launched := 0
	launch := func(hedged bool) {
		n := order[launched]
		launched++
		go func() {
			rep, err := c.call(ctx, n, req)
			results <- result{rep.result, err, hedged}
		}()
	}

	launch(false)
	inflight := 1
	var hedgeC <-chan time.Time
	if c.hedge >= 0 && launched < len(order) {
		timer := time.NewTimer(c.hedge)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var errs []error
	for inflight > 0 {
		select {
		case r := <-results:
			inflight--
			if r.err == nil {
				if r.hedged {
					c.hedgeWins.Add(1)
				}
				return r.v, nil
			}
			errs = append(errs, r.err)
			if launched < len(order) {
				c.failovers.Add(1)
				launch(false)
				inflight++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(order) {
				c.hedges.Add(1)
				launch(true)
				inflight++
			}
		}
	}
	return QueryResult{}, fmt.Errorf("no replica answered: %w", errors.Join(errs...))
}

// Snapshot asks every node to cut a durable snapshot, failing on the
// first refusal (volatile nodes answer 409). It is the operational
// fan-out of vsmartjoin.Index.Snapshot, not a consistency point: nodes
// snapshot at their own pace.
func (c *Cluster) Snapshot() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	errs := make([]error, len(c.nodes))
	req := peerRequest{op: peerSnapshot}
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			_, errs[i] = c.call(ctx, n, &req)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// NodeStatus is one node's row in Stats.
type NodeStatus struct {
	Addr          string    `json:"addr"`
	Partition     int       `json:"partition"`
	Healthy       bool      `json:"healthy"`
	LastError     string    `json:"last_error,omitempty"`
	LastChecked   time.Time `json:"last_checked"`
	Generation    uint64    `json:"generation"`
	Entities      int       `json:"entities"`
	Mutations     int64     `json:"mutations"`
	PendingRepair int       `json:"pending_repair"` // ops owed: issued to the node, not yet acknowledged
}

// Stats is the router's view of the cluster.
type Stats struct {
	Partitions int   `json:"partitions"`
	Queries    int64 `json:"queries"`
	Hedges     int64 `json:"hedges"`
	// HedgeWins counts hedged attempts whose answer beat the primary —
	// the fraction of Hedges that actually cut tail latency.
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	WriteFails int64 `json:"write_fails"`
	Repairs    int64 `json:"repairs"`
	// RepairBacklog is the current total of owed ops across nodes —
	// each counted from issue until its replica acknowledges it, so a
	// straggler's ops count as well as a failed replica's — where Repairs
	// counts ops already re-driven.
	RepairBacklog int `json:"repair_backlog"`

	// WriteLatency times quorum writes to their decision point;
	// QueryLatency times scatter-gather queries end to end.
	WriteLatency metrics.Summary `json:"write_latency"`
	QueryLatency metrics.Summary `json:"query_latency"`

	Nodes []NodeStatus `json:"nodes"`
}

// Stats reports topology, router counters, latency digests, and the
// latest per-node health the router has observed (from traffic and
// readiness probes; it performs no network calls itself).
func (c *Cluster) Stats() Stats {
	s := Stats{
		Partitions:   len(c.parts),
		Queries:      c.queries.Load(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		Failovers:    c.failovers.Load(),
		WriteFails:   c.writeFails.Load(),
		Repairs:      c.repairs.Load(),
		WriteLatency: c.writeLatency.Snapshot().Summary(),
		QueryLatency: c.queryLatency.Snapshot().Summary(),
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		s.RepairBacklog += len(n.pending)
		s.Nodes = append(s.Nodes, NodeStatus{
			Addr:          n.addr,
			Partition:     n.partition,
			Healthy:       n.healthy,
			LastError:     n.err,
			LastChecked:   n.checked,
			Generation:    n.ready.Generation,
			Entities:      n.ready.Entities,
			Mutations:     n.ready.Mutations,
			PendingRepair: len(n.pending),
		})
		n.mu.Unlock()
	}
	return s
}

// Ready reports whether the cluster can answer queries (at least one
// healthy replica per partition) and whether it can accept writes to
// every partition (a healthy majority per partition), from the
// router's current health table.
func (c *Cluster) Ready() (queries, writes bool) {
	queries, writes = true, true
	for _, row := range c.parts {
		healthy := 0
		for _, n := range row {
			if n.isHealthy() {
				healthy++
			}
		}
		if healthy == 0 {
			queries = false
		}
		if healthy < len(row)/2+1 {
			writes = false
		}
	}
	return queries, writes
}
