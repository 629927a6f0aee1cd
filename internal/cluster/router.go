package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
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
// The request is encoded once, before any node is asked, so Query reads
// q.Elements only until it returns. Cancelling ctx reels in the scatter,
// and trace values (WithRequestID) propagate onto every node request.
// Besides a malformed query or an unknown Entity, Query fails with
// ErrUnavailable when a partition has no answering replica: never a
// partial answer. A query that fails once ctx has ended returns ctx's
// error instead, and books nothing against the nodes it was waiting on.
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
	sc, err := c.scatter(ctx, &req)
	if err != nil {
		return QueryResult{}, err
	}
	defer sc.release()
	matches, neighbors := 0, 0
	for _, r := range sc.per {
		matches, neighbors = matches+len(r.Matches), neighbors+len(r.Neighbors)
	}
	if matches > 0 {
		out.Matches = make([]Match, 0, matches)
	}
	if neighbors > 0 {
		out.Neighbors = make([]Neighbor, 0, neighbors)
	}
	for _, r := range sc.per {
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
	row := c.owner(entity)
	for _, n := range c.prefer(make([]*node, len(row)), row) {
		ctx, cancel := c.withTimeout(callerCtx)
		rep, err := c.call(ctx, n, &req)
		cancel()
		if err == nil {
			return rep.elements, nil
		}
		if strings404(err) {
			return nil, fmt.Errorf("cluster: entity %q not indexed", entity)
		}
		if ended(callerCtx) {
			return nil, fmt.Errorf("cluster: %w", callerCtx.Err())
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

// A scatter is one query in flight across the partitions: the request,
// framed once, and each partition's attempt on the inline path, the one
// the calling goroutine drives. Scatters are pooled by their Cluster.
type scatter struct {
	c        *Cluster
	req      frameBuf
	order    []*node       // every partition's replica order, rows end to end
	attempts []attempt     // [partition]
	per      []QueryResult // [partition]: the answers
	// deadline bounds every partition; hedgeAt is the query's hedge
	// time, deadline when hedging is off.
	deadline, hedgeAt time.Time
	// loose marks a scatter the pool must not take back: a partition left
	// the inline path, and the goroutines raceReplicas started may still
	// be writing req, or the hook has started.
	loose bool

	// held is the inline path's connections in use, the ones interrupt
	// fails when the caller's context ends; mu guards it and interrupted,
	// which tells the caller that the hook has run.
	mu          sync.Mutex
	held        []*peerConn // [partition]
	interrupted bool
	hook        func() // interrupt, bound once
}

// An attempt is one partition's query on the inline path: the request
// written to its preferred replica over an idle connection, and the
// reply read on the calling goroutine. A partition that leaves the path
// takes its attempt to raceReplicas in one of four states: pc set, the
// request still in flight at the partition's hedge time; err set, a
// settled failure; retry set, a failure a fresh dial may get past (see
// peerPool.release); or none of these, no idle connection to send on.
type attempt struct {
	order []*node   // the partition's replicas, in the order they are tried
	pc    *peerConn // the connection the request went out on, until released
	rx    int64     // what pc had received before the request went out
	err   error
	retry bool
}

func (c *Cluster) newScatter() any {
	s := &scatter{c: c, order: make([]*node, len(c.nodes)), attempts: make([]attempt, len(c.parts)),
		per: make([]QueryResult, len(c.parts)), held: make([]*peerConn, len(c.parts))}
	s.hook = s.interrupt
	return s
}

// release hands s back to the pool, clear of its answers, unless it is
// loose.
func (s *scatter) release() {
	if s.loose {
		return
	}
	clear(s.per)
	clear(s.attempts)
	s.c.scatters.Put(s)
}

// interrupt is the query's one hook on the caller's context: it fails
// the blocked I/O of every held connection at once.
func (s *scatter) interrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interrupted = true
	for _, pc := range s.held {
		if pc != nil {
			pc.interrupt()
		}
	}
}

// hold makes pc partition p's held connection and reports false if the
// hook has already run.
func (s *scatter) hold(p int, pc *peerConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held[p] = pc
	return !s.interrupted
}

// drop lets partition p's held connection go and reports whether the
// hook has run: its deadline was then no longer the caller's to set, so
// the connection is broken.
func (s *scatter) drop(p int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.interrupted {
		s.held[p].broken = true
	}
	s.held[p] = nil
	return s.interrupted
}

// readBy moves partition p's read deadline to t, unless the hook has run.
func (s *scatter) readBy(p int, t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.interrupted {
		s.held[p].conn.SetReadDeadline(t)
	}
}

// lateLook is how long the caller waits for the first reply byte of a
// partition it comes to after the hedge time. A reply already waiting
// is seen at once; lateLook only has to outlast the step from setting
// the read deadline to the read.
const lateLook = time.Millisecond

// scatter runs one query request on every partition and returns the
// per-partition answers in s.per; the caller releases s. The calling
// goroutine drives the query: it writes the request, encoded once, to
// each partition's preferred replica over an idle connection, then
// reads the replies in partition order, waiting for a partition's first
// reply byte only until its hedge time (the query's start + HedgeAfter).
// A partition whose write or read fails, whose reply has not begun by
// then, or whose replica had no idle connection goes to raceReplicas on
// a goroutine of its own while the caller moves on; the partitions
// handed off are collected last, so their hedges fire side by side. One
// deadline (the node timeout, or ctx's if earlier) bounds every
// partition, and one hook on ctx reels the inline path in.
//
// Any partition with no answering replica fails the whole query: a
// partial answer would be silently wrong, the one thing the
// differential harness exists to prevent.
func (c *Cluster) scatter(ctx context.Context, req *peerRequest) (*scatter, error) {
	c.queries.Add(1)
	start := metrics.Now()
	defer c.queryLatency.ObserveSince(start)
	s := c.scatters.Get().(*scatter)
	if err := s.req.encode(req, RequestID(ctx)); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	now := time.Now()
	s.deadline = c.deadline(ctx, now)
	s.hedgeAt = s.deadline
	if c.hedge >= 0 && now.Add(c.hedge).Before(s.deadline) {
		s.hedgeAt = now.Add(c.hedge)
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, s.hook)
		defer func() { s.loose = !stop() || s.loose }()
	}

	off := 0
	for p, row := range c.parts {
		s.attempts[p].order = c.prefer(s.order[off:off+len(row)], row)
		off += len(row)
		s.send(ctx, p)
	}
	var done chan error
	handed := 0
	for p := range s.attempts {
		if s.receive(ctx, p) {
			continue
		}
		if done == nil {
			done = make(chan error, len(s.attempts))
			s.loose = true
		}
		handed++
		go func(p int, done chan<- error) {
			var err error
			if s.per[p], err = c.raceReplicas(ctx, s.deadline, s.hedgeTime(p), s.req.framed, &s.attempts[p]); err != nil {
				err = fmt.Errorf("partition %d: %w", p, err)
			}
			done <- err
		}(p, done)
	}
	var bad []error
	for ; handed > 0; handed-- {
		if err := <-done; err != nil {
			bad = append(bad, err)
		}
	}
	if len(bad) > 0 && ended(ctx) {
		return nil, fmt.Errorf("cluster: %w", ctx.Err())
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("cluster: %w: %w", ErrUnavailable, errors.Join(bad...))
	}
	return s, nil
}

// hedgeTime is partition p's hedge time: the query's, unless the
// partition has no second replica to hedge to.
func (s *scatter) hedgeTime(p int) time.Time {
	if len(s.attempts[p].order) < 2 {
		return s.deadline
	}
	return s.hedgeAt
}

// send writes partition p's request to its preferred replica on an idle
// connection, with the read deadline at the partition's hedge time. With
// no connection idle nothing is sent: a dial belongs on raceReplicas'
// goroutines, where a hedge can overtake it.
func (s *scatter) send(ctx context.Context, p int) {
	a := &s.attempts[p]
	pc := a.order[0].pool.idleConn()
	if pc == nil {
		return
	}
	a.pc, a.rx, pc.broken = pc, pc.rx.n, true
	err := pc.conn.SetDeadline(s.deadline)
	if hedgeAt := s.hedgeTime(p); err == nil && hedgeAt.Before(s.deadline) {
		err = pc.conn.SetReadDeadline(hedgeAt)
	}
	if !s.hold(p, pc) && err == nil {
		err = ctx.Err()
	}
	if err == nil {
		_, err = pc.conn.Write(s.req.framed)
	}
	if err != nil {
		s.end(ctx, p, peerReply{}, err, s.drop(p))
	}
}

// receive reads partition p's reply on the calling goroutine and reports
// whether the partition's answer is in; if not, the partition leaves the
// inline path.
func (s *scatter) receive(ctx context.Context, p int) bool {
	a := &s.attempts[p]
	pc := a.pc
	if pc == nil {
		return false
	}
	hedged := s.hedgeTime(p).Before(s.deadline)
	if hedged && !time.Now().Before(s.hedgeAt) {
		// An earlier partition kept the caller past the hedge time, and a
		// read past an expired deadline fails without looking at the
		// socket: a reply already waiting there gets lateLook to be seen.
		look := time.Now().Add(lateLook)
		if look.After(s.deadline) {
			look = s.deadline
		}
		s.readBy(p, look)
	}
	var rep peerReply
	_, err := pc.br.Peek(1)
	if err == nil {
		if hedged {
			s.readBy(p, s.deadline) // the rest of the reply is read under the query's deadline
		}
		rep, err = pc.receive()
	}
	interrupted := s.drop(p)
	if hedged && !interrupted && pc.rx.n == a.rx && errors.Is(err, os.ErrDeadlineExceeded) {
		return false // no reply byte by the hedge time: raceReplicas adopts the call in flight
	}
	return s.end(ctx, p, rep, err, interrupted)
}

// end closes partition p's inline attempt: it hands the connection back
// (or closes it), settles the outcome, and reports whether the answer is
// in.
func (s *scatter) end(ctx context.Context, p int, rep peerReply, err error, interrupted bool) bool {
	a := &s.attempts[p]
	n := a.order[0]
	if interrupted && err != nil {
		err = ctx.Err()
	}
	a.retry = n.pool.release(ctx, a.pc, true, a.rx, err)
	a.pc = nil
	if a.retry {
		return false
	}
	if a.err = s.c.settle(ctx, n, peerQuery, rep, err); a.err != nil {
		return false
	}
	s.per[p] = rep.result
	return true
}

// finish completes a partition's inline attempt on a goroutine of
// raceReplicas: it reads the reply still in flight, or makes the try on
// a fresh dial that no idle connection, or a broken one, prevented.
func (a *attempt) finish(ctx context.Context, deadline time.Time, framed []byte) (peerReply, error) {
	pool := a.order[0].pool
	if a.pc != nil {
		rep, err := a.pc.exchange(ctx, deadline, nil)
		if !pool.release(ctx, a.pc, true, a.rx, err) {
			return rep, err
		}
	} else if !a.retry {
		return pool.roundTrip(ctx, deadline, framed, true)
	}
	rep, _, err := pool.try(ctx, deadline, framed, true)
	return rep, err
}

// prefer fills dst, as long as replicas, with the order a partition's
// replicas are tried in: healthy replicas first (in round-robin rotation
// so load spreads), then the unhealthy ones as a last resort — health
// information is advisory and possibly stale, so a "down" node is still
// worth a final attempt before the partition is declared unavailable.
func (c *Cluster) prefer(dst, replicas []*node) []*node {
	rot := c.rr.Add(1) - 1
	healthy, sick := 0, len(replicas)
	for i := range replicas {
		n := replicas[(rot+uint64(i))%uint64(len(replicas))]
		if n.isHealthy() {
			dst[healthy] = n
			healthy++
		} else {
			sick--
			dst[sick] = n
		}
	}
	slices.Reverse(dst[healthy:])
	return dst
}

// raceReplicas finishes a partition's query that left scatter's inline
// path. It adopts the inline attempt as its first launch, on the
// preferred replica; an error fails over to the next replica at once,
// and an attempt still running at hedgeAt is hedged to the next one. The
// first successful answer wins; returning reels the losers back in, and
// their connections are closed rather than pooled. Once ctx has ended no
// replica is failed over to.
func (c *Cluster) raceReplicas(callerCtx context.Context, deadline, hedgeAt time.Time, framed []byte, first *attempt) (QueryResult, error) {
	order := first.order
	ctx, cancel := withDeadline(callerCtx, deadline)
	defer cancel()

	type result struct {
		v      QueryResult
		err    error
		hedged bool // this attempt was a hedge, not the primary or a failover
	}
	results := make(chan result, len(order))
	if first.err != nil {
		results <- result{err: first.err}
	} else {
		go func() {
			rep, err := first.finish(ctx, deadline, framed)
			results <- result{rep.result, c.settle(ctx, order[0], peerQuery, rep, err), false}
		}()
	}
	launched := 1
	launch := func(hedged bool) {
		n := order[launched]
		launched++
		go func() {
			rep, err := n.pool.roundTrip(ctx, deadline, framed, true)
			results <- result{rep.result, c.settle(ctx, n, peerQuery, rep, err), hedged}
		}()
	}

	inflight := 1
	var hedgeC <-chan time.Time
	if hedgeAt.Before(deadline) && launched < len(order) {
		timer := time.NewTimer(time.Until(hedgeAt))
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
			if launched < len(order) && ctx.Err() == nil {
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
	ctx, cancel := c.withTimeout(context.Background())
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
