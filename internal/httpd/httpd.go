// Package httpd is the one HTTP server skeleton both vsmartjoind modes
// share: NewNode serves a single *vsmartjoin.Index (a cluster
// partition replica, or a standalone daemon — they are the same
// thing), NewRouter serves a *vsmartjoin.Cluster. The two handlers
// expose the same core surface (/add, /remove, /query, /snapshot,
// /healthz, /readyz, /stats) with identical request validation and
// error payloads, so a load balancer or client cannot tell a router
// from a node on the query path; nodes additionally expose /bulk
// (batched mutations) and /entity (an entity's stored multiset). A
// router reaches its nodes over internal/cluster's binary hop instead: a
// node upgrades GET /peer, hijacks the connection and serves it with
// cluster.ServePeer (Node), passing each call through the server's
// handler when middleware wraps the node, so the middleware still sees
// it (throughHandler).
//
// Probing is split in two: GET /healthz is liveness — any 200 means
// the process is serving — while GET /readyz is readiness and carries
// the state counters (generation, entity count, mutation counter) that
// let a router or load balancer detect a stale or lagging replica, not
// just a dead one.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// querier is the query surface both backends share — *vsmartjoin.Index
// and *vsmartjoin.Cluster satisfy it as they are; handleQuery is written
// against it so node and router mode validate and answer /query and
// /knn identically. The context carries the request ID (and, for the
// router backend, cancellation) down to the backend.
type querier interface {
	Query(ctx context.Context, q vsmartjoin.Query) (vsmartjoin.QueryResult, error)
}

// mutator is the write surface both backends share — *vsmartjoin.Index
// and *vsmartjoin.Cluster satisfy it as they are; the three write
// handlers are written against it so node and router mode validate and
// answer /add, /remove and /bulk identically.
type mutator interface {
	Apply(ctx context.Context, muts []vsmartjoin.Mutation) ([]bool, error)
}

// Node is the node HTTP API over one index: the JSON endpoints, and on
// GET /peer the routers' peer connections.
type Node struct {
	api  http.Handler
	peer cluster.PeerBackend

	mu       sync.Mutex
	conns    map[net.Conn]struct{} // peer connections being served
	draining bool
	loops    sync.WaitGroup
}

// NewNode wires an index to the node HTTP API.
func NewNode(ix *vsmartjoin.Index, opts Options) *Node {
	s := &nodeServer{ix: ix, lim: newLimiter(opts.MaxInFlight)}
	ws := writes{backend: ix, entities: ix.Len}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /add", ws.handleAdd)
	mux.HandleFunc("POST /remove", ws.handleRemove)
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) { handleQuery(w, r, s.ix, false) })
	mux.HandleFunc("POST /knn", func(w http.ResponseWriter, r *http.Request) { handleQuery(w, r, s.ix, true) })
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /bulk", ws.handleBulk)
	mux.HandleFunc("GET /entity", s.handleEntity)
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ix.Stats())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return &Node{api: wrap(mux, s.lim), peer: peerBackend{ix, s.lim}, conns: make(map[net.Conn]struct{})}
}

// ServeHTTP serves the JSON API, and on cluster.PeerPath a peer
// connection until it closes; admission applies to each request the
// connection carries, not to the upgrade. When the HTTP server's handler
// is not the Node itself — middleware wraps it — each peer request is
// passed through that handler as a GET of cluster.PeerPath carrying the
// request ID header, so the middleware sees every router call as it saw
// every HTTP request; the Node answers it when the request reaches it.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != cluster.PeerPath {
		n.api.ServeHTTP(w, r)
		return
	}
	if t, ok := r.Context().Value(peerCallKey{}).(*throughHandler); ok {
		t.answer()
		return
	}
	conn, err := cluster.AcceptPeer(w, r)
	if err != nil {
		return
	}
	b := n.peer
	if srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server); srv != nil {
		if h, _ := srv.Handler.(*Node); h != n {
			b = newThroughHandler(b, srv.Handler, r)
		}
	}
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.conns[conn] = struct{}{}
	n.loops.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.loops.Done()
		cluster.ServePeer(conn, b)
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
}

// Drain winds the peer connections down — each finishes the request in
// hand, then closes; later upgrades are refused — and returns once every
// peer loop has exited. A daemon calls it after http.Server.Shutdown,
// which does not see hijacked connections, and before closing the index.
func (n *Node) Drain() {
	n.mu.Lock()
	n.draining = true
	for conn := range n.conns {
		conn.SetReadDeadline(time.Now()) // ends ServePeer at its next read
	}
	n.mu.Unlock()
	n.loops.Wait()
}

// NewRouter wires a cluster client to the router HTTP API — the same
// core surface a node serves, minus the node-only endpoints, so
// clients built against one daemon talk to a cluster unchanged.
func NewRouter(c *vsmartjoin.Cluster, opts Options) http.Handler {
	s := &routerServer{c: c, lim: newLimiter(opts.MaxInFlight)}
	ws := writes{backend: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /add", ws.handleAdd)
	mux.HandleFunc("POST /remove", ws.handleRemove)
	mux.HandleFunc("POST /bulk", ws.handleBulk)
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) { handleQuery(w, r, s.c, false) })
	mux.HandleFunc("POST /knn", func(w http.ResponseWriter, r *http.Request) { handleQuery(w, r, s.c, true) })
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.c.Stats())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return wrap(mux, s.lim)
}

// ---- shared plumbing ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	a := newAnswer()
	a.string("error", fmt.Sprintf(format, args...))
	a.send(w, status)
}

// handleHealthz is the liveness probe, identical for both modes: the
// handler is only registered once startup (recovery, preload, topology
// validation) finished, so any answer at all means the process is
// serving. State belongs on /readyz.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"serving": true})
}

type addRequest struct {
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements"`
}

type removeRequest struct {
	Entity string `json:"entity"`
}

// writes serves /add, /remove and /bulk against either backend. Each
// route checks its own body, then hands Apply a batch: one mutation for
// /add and /remove, the decoded ops for /bulk — the sanctioned
// batched-ingest path, whose wire types live in internal/cluster beside
// the mutation model, so every producer shares one schema. On
// a node that makes a /bulk body, mixed ops included, one WAL append and
// one index write-lock hold, applied all or nothing; on a router, one
// quorum write per touched partition.
type writes struct {
	backend mutator
	// entities, set on a node only, is the live entity count every node
	// write reply carries.
	entities func() int
}

func (s writes) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req addRequest
	if !readRequest(w, r, func(d *decoder) { d.addRequest(&req) }) {
		return
	}
	muts := []vsmartjoin.Mutation{{Op: vsmartjoin.OpAdd, Entity: req.Entity, Elements: req.Elements}}
	switch {
	case req.Entity == "":
		writeError(w, http.StatusBadRequest, "missing entity")
	case cluster.CheckMutations(muts) != nil:
		// No nonzero count: Index.Apply drops zeros, and an all-zero body
		// would index a permanently unmatchable empty entity.
		writeError(w, http.StatusBadRequest, "missing elements")
	default:
		if _, ok := s.apply(w, r, muts); ok {
			a := newAnswer()
			if !s.count(a) {
				a.bool("ok", true)
			}
			a.send(w, http.StatusOK)
		}
	}
}

func (s writes) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !readRequest(w, r, func(d *decoder) { d.removeRequest(&req) }) {
		return
	}
	if req.Entity == "" {
		writeError(w, http.StatusBadRequest, "missing entity")
		return
	}
	if removed, ok := s.apply(w, r, []vsmartjoin.Mutation{{Op: vsmartjoin.OpRemove, Entity: req.Entity}}); ok {
		a := newAnswer()
		s.count(a)
		a.bool("removed", removed[0])
		a.send(w, http.StatusOK)
	}
}

func (s writes) handleBulk(w http.ResponseWriter, r *http.Request) {
	var req cluster.BulkRequest
	if !readRequest(w, r, func(d *decoder) { d.bulkRequest(&req) }) {
		return
	}
	// Every op is checked before anything is applied, so a malformed op
	// cannot leave a half-applied 400.
	if err := cluster.CheckMutations(req.Ops); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, ok := s.apply(w, r, req.Ops); ok {
		a := newAnswer()
		a.int("applied", int64(len(req.Ops)))
		s.count(a)
		a.send(w, http.StatusOK)
	}
}

// apply runs one checked batch; on failure it has answered — 503 when
// the cluster could not reach a quorum (the request was fine, the
// deployment is not), 500 otherwise — and ok is false. The context
// carries the request ID, which is what makes the router's node
// sub-requests traceable.
func (s writes) apply(w http.ResponseWriter, r *http.Request, muts []vsmartjoin.Mutation) (applied []bool, ok bool) {
	ctx := cluster.WithRequestID(r.Context(), r.Header.Get(cluster.HeaderRequestID))
	applied, err := s.backend.Apply(ctx, muts)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return nil, false
	}
	return applied, true
}

// count adds, on a node, the entity count every node write reply
// carries, and reports whether it did: a node's /add answers with the
// count alone, a router's with "ok". Callers add the members around it
// in sorted key order ("applied" < "entities" < "ok" < "removed").
func (s writes) count(a *answer) bool {
	if s.entities == nil {
		return false
	}
	a.int("entities", int64(s.entities()))
	return true
}

type queryRequest struct {
	// Exactly one of Entity (an indexed entity name) or Elements (an
	// ad-hoc multiset) names the query.
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements"`
	// Exactly one of Threshold or TopK selects the query kind. Threshold
	// is a pointer so that an explicit 0 ("any overlap") is distinguishable
	// from absent.
	Threshold *float64 `json:"threshold"`
	TopK      int      `json:"topk"`
	// Debug asks for a trace annotation block (request ID, per-stage
	// timings) alongside the matches.
	Debug bool `json:"debug"`
}

type knnRequest struct {
	// At most one of Entity (an indexed entity name) or Elements (an
	// ad-hoc multiset) names the query. Unlike /query, both may be absent:
	// an empty multiset is a legal kNN query — every entity is then a
	// distance-1 neighbor and the answer is the k smallest names.
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements"`
	K        int               `json:"k"`
}

// parseQuery decodes and validates a /query body (or, with knn, a /knn
// body — the same question in distance form, under its own field
// names) into the one query value both backends answer. On failure the
// 4xx response has been written and ok is false.
func parseQuery(w http.ResponseWriter, r *http.Request, knn bool) (q vsmartjoin.Query, debug, ok bool) {
	if knn {
		var req knnRequest
		switch {
		case !readRequest(w, r, func(d *decoder) { d.knnRequest(&req) }):
		case req.Entity != "" && len(req.Elements) > 0:
			writeError(w, http.StatusBadRequest, "name the query with at most one of entity or elements")
		case req.K <= 0:
			writeError(w, http.StatusBadRequest, "k must be positive")
		default:
			return vsmartjoin.Query{Entity: req.Entity, Elements: req.Elements, Kind: vsmartjoin.KindKNN, K: req.K}, false, true
		}
		return q, false, false
	}
	var req queryRequest
	switch {
	case !readRequest(w, r, func(d *decoder) { d.queryRequest(&req) }):
	case (req.Entity == "") == (len(req.Elements) == 0):
		writeError(w, http.StatusBadRequest, "name the query with exactly one of entity or elements")
	case (req.Threshold == nil) == (req.TopK == 0):
		writeError(w, http.StatusBadRequest, "select exactly one of threshold or topk")
	case req.TopK < 0:
		writeError(w, http.StatusBadRequest, "topk must be positive")
	case req.TopK > 0 && req.Entity != "":
		// The wire API has no entity-relative top-k form; reject rather
		// than guess.
		writeError(w, http.StatusBadRequest, "topk queries take elements, not an entity")
	case req.TopK > 0:
		return vsmartjoin.Query{Elements: req.Elements, Kind: vsmartjoin.KindTopK, K: req.TopK}, req.Debug, true
	default:
		return vsmartjoin.Query{Entity: req.Entity, Elements: req.Elements, Threshold: *req.Threshold}, req.Debug, true
	}
	return q, false, false
}

// handleQuery serves /query and (with knn) /knn against either backend.
// Backend errors map to 400 (the request named an unknown entity, an
// out-of-range threshold, ...) except cluster-unavailable ones, which
// are 503: the request was fine, the deployment is not.
func handleQuery(w http.ResponseWriter, r *http.Request, backend querier, knn bool) {
	start := time.Now()
	q, debug, ok := parseQuery(w, r, knn)
	if !ok {
		return
	}
	decoded := time.Now()
	// The wrap middleware guaranteed the header; carrying the ID in the
	// context is what makes the router's node sub-requests traceable.
	rid := r.Header.Get(cluster.HeaderRequestID)
	res, err := backend.Query(cluster.WithRequestID(r.Context(), rid), q)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	a := newAnswer()
	if debug {
		queried := time.Now()
		a.debug(rid, decoded.Sub(start), queried.Sub(decoded), queried.Sub(start))
	}
	a.results(res, knn)
	a.send(w, http.StatusOK)
}

// snapshotBody enforces "optional, but well-formed if present" for the
// /snapshot endpoints: no body, an empty chunked one included, is absent.
func snapshotBody(w http.ResponseWriter, r *http.Request) bool {
	return readRequest(w, r, nil)
}

// ---- node mode ----

type nodeServer struct {
	ix  *vsmartjoin.Index
	lim *limiter
}

// handleMetrics serves the node's Prometheus scrape: index size and
// funnel counters, cache traffic, and the latency histograms of every
// layer under this process (query, WAL append/fsync/commit wait).
func (s *nodeServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	m := s.ix.Metrics()
	w.Header().Set("Content-Type", promContentType)
	p := promWriter{w}
	p.gauge("vsmart_entities", "Live indexed entities.", float64(st.Entities))
	p.gauge("vsmart_index_generation", "Write-ahead log generation (0 = volatile).", float64(st.Generation))
	p.counter("vsmart_adds_total", "Entity upserts applied.", float64(st.Adds))
	p.counter("vsmart_removes_total", "Entity removals applied.", float64(st.Removes))
	p.counter("vsmart_queries_total", "Queries answered by the inner index (cache hits excluded).", float64(st.Queries))
	p.counter("vsmart_cache_hits_total", "Result-cache hits.", float64(st.CacheHits))
	p.counter("vsmart_cache_misses_total", "Result-cache misses.", float64(st.CacheMisses))
	p.gauge("vsmart_cache_entries", "Cached query answers resident.", float64(st.CacheEntries))
	p.counter("vsmart_probes_total", "Posting entries walked.", float64(st.Probes))
	p.counter("vsmart_candidates_total", "Candidates surviving the probe.", float64(st.Candidates))
	p.counter("vsmart_length_pruned_total", "Candidates eliminated by length bounds.", float64(st.LengthPruned))
	p.counter("vsmart_verified_total", "Similarities computed, one per admitted candidate.", float64(st.Verified))
	p.counter("vsmart_results_total", "Matches returned.", float64(st.Results))
	p.histogram("vsmart_query_latency_seconds", "Uncached query latency (probe, verify, resolve).", m.Query)
	p.histogram("vsmart_wal_append_latency_seconds", "Write-ahead log append stalls.", m.WALAppend)
	p.histogram("vsmart_wal_fsync_latency_seconds", "Write-ahead log fsync stalls.", m.WALFsync)
	p.histogram("vsmart_wal_commit_wait_seconds", "Wait for the group commit covering an acknowledged mutation (DurabilitySync only).", m.WALCommitWait)
	p.counter("vsmart_wal_records_total", "Write-ahead log records appended.", float64(m.WALRecords))
	p.counter("vsmart_wal_fsyncs_total", "Write-ahead log fsyncs issued; the ratio to records is the amortized durability cost.", float64(m.WALFsyncs))
	p.admission(s.lim)
}

// handleSnapshot forces a snapshot + log truncation on a durable index;
// on a volatile one it reports 409 (there is nothing to snapshot to).
func (s *nodeServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !snapshotBody(w, r) {
		return
	}
	if err := s.ix.Snapshot(); err != nil {
		writeError(w, snapshotStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot": true, "entities": s.ix.Len()})
}

// snapshotStatus classes a snapshot failure: no durability dir (or a
// closed index) is the caller's state conflict; anything else is a real
// server-side persistence failure and must not hide among the 4xx.
func snapshotStatus(err error) int {
	if errors.Is(err, vsmartjoin.ErrNotDurable) || errors.Is(err, vsmartjoin.ErrIndexClosed) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// handleEntity reports an indexed entity's current element
// multiplicities (the router reads the same over the peer hop, to
// scatter an entity-relative query to the partitions that lack it).
func (s *nodeServer) handleEntity(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	counts, ok := s.ix.Elements(name)
	if !ok {
		writeError(w, http.StatusNotFound, "entity %q not indexed", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"entity": name, "elements": counts})
}

// handleReadyz is the node readiness probe: 200 once serving (a node
// that finished recovery is ready), with the counters a router or load
// balancer compares across replicas to detect a stale one.
func (s *nodeServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":      true,
		"measure":    st.Measure,
		"generation": st.Generation,
		"entities":   st.Entities,
		"mutations":  st.Adds + st.Removes,
	})
}

// peerBackend answers the router's peer requests: queries and writes
// straight from the index, under the node's admission limiter, the rest
// with the statuses of the JSON endpoints that answer the same questions.
type peerBackend struct {
	*vsmartjoin.Index
	lim *limiter
}

func (p peerBackend) Admit() bool                   { return p.lim.acquire() }
func (p peerBackend) Release()                      { p.lim.release() }
func (p peerBackend) Serve(_ string, answer func()) { answer() }

func (p peerBackend) Entity(name string) (map[string]uint32, error) {
	counts, ok := p.Elements(name)
	if !ok {
		return nil, cluster.StatusError{Code: http.StatusNotFound, Msg: fmt.Sprintf("entity %q not indexed", name)}
	}
	return counts, nil
}

func (p peerBackend) Readiness() (cluster.Readiness, error) {
	st := p.Stats()
	return cluster.Readiness{Ready: true, Measure: st.Measure, Generation: st.Generation,
		Entities: st.Entities, Mutations: st.Adds + st.Removes}, nil
}

func (p peerBackend) Snapshot() error {
	if err := p.Index.Snapshot(); err != nil {
		return cluster.StatusError{Code: snapshotStatus(err), Msg: err.Error()}
	}
	return nil
}

// throughHandler is a connection's backend when middleware wraps the
// node: it passes each peer request through the server's handler h as
// req, one request value per connection reused call to call (the
// connection carries one at a time), and Node.ServeHTTP runs the answer
// it finds on req's context. What the handler writes is dropped — the
// reply travels in the frame.
type throughHandler struct {
	cluster.PeerBackend
	h      http.Handler
	req    *http.Request
	rid    []string // req's request ID header value
	w      droppedResponse
	answer func()
}

type peerCallKey struct{}

func newThroughHandler(b cluster.PeerBackend, h http.Handler, upgrade *http.Request) *throughHandler {
	if h == nil {
		h = http.DefaultServeMux // what http.Server serves with a nil Handler
	}
	t := &throughHandler{PeerBackend: b, h: h, rid: make([]string, 1), w: droppedResponse{http.Header{}}}
	t.req = (&http.Request{Method: http.MethodGet, URL: &url.URL{Path: cluster.PeerPath},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Body: http.NoBody,
		Host: upgrade.Host, RemoteAddr: upgrade.RemoteAddr}).WithContext(context.WithValue(context.Background(), peerCallKey{}, t))
	return t
}

func (t *throughHandler) Serve(rid string, answer func()) {
	clear(t.req.Header)
	clear(t.w.header)
	t.rid[0] = rid
	t.req.Header[cluster.HeaderRequestID] = t.rid
	t.answer = answer
	t.h.ServeHTTP(t.w, t.req)
}

type droppedResponse struct{ header http.Header }

func (d droppedResponse) Header() http.Header       { return d.header }
func (droppedResponse) Write(p []byte) (int, error) { return len(p), nil }
func (droppedResponse) WriteHeader(int)             {}

// ---- router mode ----

type routerServer struct {
	c   *vsmartjoin.Cluster
	lim *limiter
}

// handleMetrics serves the router's Prometheus scrape: scatter-gather
// and quorum-write latency, hedge/failover/repair counters, and the
// per-node health table.
func (s *routerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.c.Stats()
	m := s.c.Metrics()
	w.Header().Set("Content-Type", promContentType)
	p := promWriter{w}
	p.gauge("vsmart_cluster_partitions", "Partitions in the cluster topology.", float64(st.Partitions))
	p.counter("vsmart_cluster_queries_total", "Scatter-gather queries routed.", float64(st.Queries))
	p.counter("vsmart_cluster_hedges_total", "Hedged query attempts fired.", float64(st.Hedges))
	p.counter("vsmart_cluster_hedge_wins_total", "Hedged attempts whose answer won the race.", float64(st.HedgeWins))
	p.counter("vsmart_cluster_failovers_total", "Query attempts failed over to another replica.", float64(st.Failovers))
	p.counter("vsmart_cluster_write_fails_total", "Writes that missed their quorum.", float64(st.WriteFails))
	p.counter("vsmart_cluster_repairs_total", "Owed write ops re-driven by anti-entropy.", float64(st.Repairs))
	p.gauge("vsmart_cluster_repair_backlog", "Write ops owed across replicas, each from issue until its replica acknowledges it.", float64(st.RepairBacklog))
	p.histogram("vsmart_cluster_query_latency_seconds", "Scatter-gather query latency end to end.", m.Query)
	p.histogram("vsmart_cluster_write_latency_seconds", "Quorum write latency to decision.", m.Write)
	p.header("vsmart_cluster_node_healthy", "gauge", "Per-node health as last observed by this router (1 healthy, 0 not).")
	for _, n := range st.Nodes {
		v := 0.0
		if n.Healthy {
			v = 1
		}
		p.labeled("vsmart_cluster_node_healthy", [][2]string{{"node", n.Addr}, {"partition", fmt.Sprint(n.Partition)}}, v)
	}
	p.header("vsmart_cluster_node_pending_repair", "gauge", "Write ops owed by this node, from issue until acknowledged.")
	for _, n := range st.Nodes {
		p.labeled("vsmart_cluster_node_pending_repair", [][2]string{{"node", n.Addr}, {"partition", fmt.Sprint(n.Partition)}}, float64(n.PendingRepair))
	}
	p.admission(s.lim)
}

func (s *routerServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !snapshotBody(w, r) {
		return
	}
	if err := s.c.Snapshot(); err != nil {
		writeError(w, fanOutSnapshotStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot": true})
}

// fanOutSnapshotStatus classes a Cluster.Snapshot failure, which joins
// one error per failed node: 409 when every node refused with 409 (no
// durability dir), as each node would answer itself; 500 when any node
// failed otherwise.
func fanOutSnapshotStatus(err error) int {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return http.StatusInternalServerError
	}
	for _, e := range joined.Unwrap() {
		var se cluster.StatusError
		if !errors.As(e, &se) || se.Code != http.StatusConflict {
			return http.StatusInternalServerError
		}
	}
	return http.StatusConflict
}

// handleReadyz is the router readiness probe: 200 only while every
// partition has at least one healthy replica (queries exact or
// nothing), with write readiness — a healthy majority everywhere —
// reported alongside.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	queries, writes := s.c.Ready()
	status := http.StatusOK
	if !queries {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":       queries,
		"write_ready": writes,
		"partitions":  s.c.Stats().Partitions,
	})
}
