package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/httpd"
)

// numClients is the closed-loop client count: one per processor, since
// the generator and the system under test share the machine.
func numClients() int { return runtime.NumCPU() }

func datasetOf(corp *corpus) *vsmartjoin.Dataset {
	d := vsmartjoin.NewDataset()
	for _, e := range corp.ents {
		d.Add(e.name, e.counts)
	}
	return d
}

// openBulkIndex is the serving set-up every workload times: bulk-build
// the corpus into dir with the batch builder, then open the files the
// way a daemon does.
func openBulkIndex(d *vsmartjoin.Dataset, dir string, shards int) (*vsmartjoin.Index, error) {
	if _, err := vsmartjoin.BuildIndexFiles(d, vsmartjoin.IndexOptions{Dir: dir, Shards: shards}); err != nil {
		return nil, err
	}
	return vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{Dir: dir})
}

// server is a loopback http.Server around one of the system's handlers.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for the
// serve goroutine to end.
func (s *server) stop() {
	s.srv.Close()
	<-s.done
}

// errShed marks a request the daemon's admission control refused.
var errShed = errors.New("shed (429)")

// post sends one JSON request and reads the whole response into buf.
// Anything but a 200 is an error.
func post(c *http.Client, url string, body []byte, rid string, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(cluster.HeaderRequestID, rid)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return errShed
	default:
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
}

var (
	matchesPrefix   = []byte(`{"matches":[`)
	neighborsPrefix = []byte(`{"neighbors":[`)
)

// wellFormed is the cheap per-response check of the timed loop: the
// body starts as the answer type the request asked for. Full decoding
// and comparison with the oracle happen after the window.
func wellFormed(kind int, body []byte) error {
	prefix := matchesPrefix
	if kind == kindKNN {
		prefix = neighborsPrefix
	}
	if !bytes.HasPrefix(body, prefix) {
		return fmt.Errorf("malformed %s response: %.60q", kindNames[kind], body)
	}
	return nil
}

// verifyBody decodes a daemon response and compares it with the
// oracle's answer to the same query; "" means they agree exactly.
func verifyBody(o *oracle, q *query, body []byte) string {
	var r struct {
		Matches   []vsmartjoin.Match    `json:"matches"`
		Neighbors []vsmartjoin.Neighbor `json:"neighbors"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	return answer{matches: r.Matches, neighbors: r.Neighbors}.diff(o, q)
}

// answer is a library query result kept for verification.
type answer struct {
	matches   []vsmartjoin.Match
	neighbors []vsmartjoin.Neighbor
	set       bool
}

func askIndex(ix *vsmartjoin.Index, q *query) (answer, error) {
	switch q.kind {
	case kindThreshold:
		ms, err := ix.QueryThreshold(q.counts, queryThreshold)
		return answer{matches: ms, set: true}, err
	case kindTopK:
		return answer{matches: ix.QueryTopK(q.counts, queryK), set: true}, nil
	default:
		return answer{neighbors: ix.QueryKNN(q.counts, queryK), set: true}, nil
	}
}

func (a answer) diff(o *oracle, q *query) string {
	switch q.kind {
	case kindThreshold:
		return diffMatches(a.matches, o.threshold(q.counts, queryThreshold))
	case kindTopK:
		return diffMatches(a.matches, o.topK(q.counts, queryK))
	default:
		want, _ := o.knn(q.counts, queryK)
		return diffNeighbors(a.neighbors, want)
	}
}

// zipfOffset is the v of every popularity schedule's zipf(s, v): rank k
// is drawn with probability ∝ (v + k)^−s. With v = 1 and s ≈ 1.1 a
// single request is a sixth of all traffic and three are over a
// quarter, so which three entities a seed happens to put there decides
// the run (a hot kNN query that needs padding costs twenty ordinary
// ones). With v = 16 the skew is still zipf's, but the hottest request
// is about 2 % of the traffic and the top fifty carry a third to a
// half of it, so a run measures the system and not three requests.
const zipfOffset = 16

// verifiedQueries is how many answers each serving workload checks
// against the oracle: at least 200 of each of the three kinds.
const verifiedQueries = 600

func cacheTraffic(ixs ...*vsmartjoin.Index) (hits, misses int64) {
	for _, ix := range ixs {
		st := ix.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	return hits, misses
}

// runIndexQuery is the index_query workload: the public
// vsmartjoin.Index, in process, answering queries it has never seen.
func runIndexQuery(cfg runConfig, rec *recorder) (*windowResult, error) {
	res := &windowResult{}
	corp, err := generateCorpus(servingTraceConfig(cfg.seed, cfg.quick))
	if err != nil {
		return nil, err
	}
	data := datasetOf(corp)
	clients := numClients()
	// Each client cycles through its own slice of the pool. A slice is
	// several times the result cache (1024 entries), so by the time a
	// query comes round again the LRU has long evicted it: every query
	// is a miss.
	perClient := 8192
	if cfg.quick {
		perClient = 2048
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1)))
	pool, err := makeQueries(rng, corp.ents, clients*perClient, "q")
	if err != nil {
		return nil, err
	}

	var ix *vsmartjoin.Index
	for i := 0; i < cfg.setups; i++ {
		if ix != nil {
			if err := ix.Close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("index-%d", i))
		took, err := cfg.probe.timeCorrected(func() (err error) {
			ix, err = openBulkIndex(data, dir, 2)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set up index: %w", err)
		}
		res.setups = append(res.setups, took)
	}
	defer ix.Close()
	o := newOracle(corp.ents)

	samplePer := (verifiedQueries + clients - 1) / clients
	captured := make([][]answer, clients)
	for c := range captured {
		captured[c] = make([]answer, samplePer)
	}
	loop := closedLoop(clients, cfg.warmup(), cfg.window, cfg.probe, rec, func(client, seq int, _ string) (int, error) {
		j := seq % perClient
		q := &pool[client*perClient+j]
		a, err := askIndex(ix, q)
		if err == nil && j < samplePer && !captured[client][j].set {
			captured[client][j] = a
		}
		return classRead, err
	})
	res.takeLoop(loop, cfg.window, rec)
	res.cacheHits, res.cacheMisses = cacheTraffic(ix)

	for c := range captured {
		for j, a := range captured[c] {
			q := &pool[c*perClient+j]
			if !a.set { // the window ended before this client reached it
				res.attempted++
				if a, err = askIndex(ix, q); err != nil {
					res.fail("verify query: %v", err)
					continue
				}
			}
			if d := a.diff(o, q); d != "" {
				res.fail("%s query %d/%d: %s", kindNames[q.kind], c, j, d)
			}
		}
	}
	return res, nil
}

// takeLoop copies a closed-loop window into the result.
func (w *windowResult) takeLoop(l *loopResult, window time.Duration, rec *recorder) {
	w.slices = sliceWindow(l.samples, l.refs, window)
	w.samples = l.samples
	w.add(l.tally)
	if rec != nil {
		w.spans = rec.spans
	}
}

// runNodeHTTP is the node_http workload: the daemon's node handler on
// a loopback socket, asked a small zipf-skewed set of queries over and
// over, so nearly every answer comes out of the result cache and the
// wire path is what is being timed.
func runNodeHTTP(cfg runConfig, rec *recorder) (*windowResult, error) {
	res := &windowResult{}
	corp, err := generateCorpus(servingTraceConfig(cfg.seed, cfg.quick))
	if err != nil {
		return nil, err
	}
	data := datasetOf(corp)
	clients := numClients()
	// 600 distinct bodies (200 per kind) fit the default result cache
	// (1024) with room to spare.
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1)))
	pool, err := makeQueries(rng, corp.ents, verifiedQueries, "p")
	if err != nil {
		return nil, err
	}
	ranks := datagen.ZipfRanks(subSeed(cfg.seed, 2), 1.2, zipfOffset, uint64(len(pool)-1), 1<<16)

	var ix *vsmartjoin.Index
	var srv *server
	teardown := func() error {
		if srv != nil {
			srv.stop()
		}
		if ix != nil {
			return ix.Close()
		}
		return nil
	}
	for i := 0; i < cfg.setups; i++ {
		if err := teardown(); err != nil {
			return nil, err
		}
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("node-%d", i))
		took, err := cfg.probe.timeCorrected(func() (err error) {
			if ix, err = openBulkIndex(data, dir, 1); err != nil {
				return err
			}
			srv, err = startServer(rec.middleware("node", httpd.NewNode(ix, httpd.Options{})))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set up node: %w", err)
		}
		res.setups = append(res.setups, took)
	}
	defer teardown()
	o := newOracle(corp.ents)

	hc := cluster.NewHTTPClient(0, 1)
	defer hc.CloseIdleConnections()
	bufs := make([]bytes.Buffer, clients)
	// first[c][item] is the first response client c got for a pool item;
	// every later response to the same item must repeat it byte for
	// byte, so a stale or corrupted cache hit is a failure, and the
	// first responses are what the oracle checks after the window.
	first := make([][][]byte, clients)
	for c := range first {
		first[c] = make([][]byte, len(pool))
	}
	stride := len(ranks) / clients
	var shed atomic.Int64
	loop := closedLoop(clients, cfg.warmup(), cfg.window, cfg.probe, rec, func(client, seq int, rid string) (int, error) {
		item := ranks[(client*stride+seq)%len(ranks)]
		q := &pool[item]
		buf := &bufs[client]
		if err := post(hc, srv.url+q.path, q.body, rid, buf); err != nil {
			if errors.Is(err, errShed) {
				shed.Add(1)
			}
			return classRead, err
		}
		if err := wellFormed(q.kind, buf.Bytes()); err != nil {
			return classRead, err
		}
		if prev := first[client][item]; prev == nil {
			first[client][item] = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(prev, buf.Bytes()) {
			return classRead, fmt.Errorf("pool item %d answered differently on repeat", item)
		}
		return classRead, nil
	})
	res.takeLoop(loop, cfg.window, rec)
	res.shed = shed.Load()
	res.cacheHits, res.cacheMisses = cacheTraffic(ix)

	for item := range pool {
		q := &pool[item]
		var body []byte
		for c := range first {
			if first[c][item] != nil {
				body = first[c][item]
				break
			}
		}
		if body == nil { // the zipf tail never drew it inside the window
			res.attempted++
			if err := post(hc, srv.url+q.path, q.body, "", &bufs[0]); err != nil {
				res.fail("verify query: %v", err)
				continue
			}
			body = bufs[0].Bytes()
		}
		if d := verifyBody(o, q, body); d != "" {
			res.fail("%s pool item %d: %s", kindNames[q.kind], item, d)
		}
	}
	return res, nil
}

// clusterSystem is a 2-partition × 2-replica deployment in one
// process: four durable single-shard node daemons on loopback sockets,
// a vsmartjoin.Cluster routing to them, and the router's own handler on
// a fifth socket.
type clusterSystem struct {
	nodes   []*vsmartjoin.Index
	servers []*server
	client  *vsmartjoin.Cluster
	router  *server
}

const (
	clusterPartitions = 2
	clusterReplicas   = 2
)

// startCluster bulk-carves the corpus once per replica set, opens every
// node directory durably (DurabilityOS, default snapshot cadence) and
// wires the router. Health and repair loops are off: nothing fails in
// the benchmark, and their background traffic would only add noise.
// Hedging stays at its default. Handlers are wrapped by rec when
// tracing.
func startCluster(data *vsmartjoin.Dataset, dir string, rec *recorder) (*clusterSystem, error) {
	cs := &clusterSystem{}
	topology := make([][]string, clusterPartitions)
	for r := 0; r < clusterReplicas; r++ {
		parent := filepath.Join(dir, fmt.Sprintf("replica-%d", r))
		opts := vsmartjoin.IndexOptions{Dir: parent, Shards: 1}
		if _, err := vsmartjoin.BuildClusterFiles(data, opts, clusterPartitions); err != nil {
			cs.stop()
			return nil, err
		}
		for p := 0; p < clusterPartitions; p++ {
			ix, err := vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{Dir: filepath.Join(parent, vsmartjoin.NodeDirName(p))})
			if err != nil {
				cs.stop()
				return nil, err
			}
			cs.nodes = append(cs.nodes, ix)
			srv, err := startServer(rec.middleware("node", httpd.NewNode(ix, httpd.Options{})))
			if err != nil {
				cs.stop()
				return nil, err
			}
			cs.servers = append(cs.servers, srv)
			topology[p] = append(topology[p], srv.url)
		}
	}
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{Nodes: topology, HealthEvery: -1, RepairEvery: -1})
	if err != nil {
		cs.stop()
		return nil, err
	}
	cs.client = c
	if cs.router, err = startServer(rec.middleware("router", httpd.NewRouter(c, httpd.Options{}))); err != nil {
		cs.stop()
		return nil, err
	}
	return cs, nil
}

// stop shuts the deployment down from the outside in and reports the
// first node close error.
func (cs *clusterSystem) stop() error {
	if cs.router != nil {
		cs.router.stop()
	}
	if cs.client != nil {
		cs.client.Close()
	}
	for _, s := range cs.servers {
		s.stop()
	}
	var first error
	for _, ix := range cs.nodes {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	*cs = clusterSystem{}
	return first
}

// mixedOp is one entry of a cluster_mixed client's schedule.
type mixedOp struct {
	read bool
	item int // read: index into the shared read pool
	// write: the request, and what it does to the model
	path   string
	body   []byte
	entity string
	counts map[string]uint32 // nil for a remove
}

// mixedSchedule builds one client's operations: 80 % reads drawn
// zipf(1.1) from the shared read pool, 20 % writes to zipf(1.1)-popular
// keys of the client's own slice of the entity names (every clients-th
// source entity, starting at its own number, in a seeded order), four
// upserts to one remove. Because no two clients ever write the same
// entity, the final state depends only on how many operations each
// client got through, never on how the clients interleaved.
func mixedSchedule(seed int64, client, clients int, ents []entity, readPool, n int) ([]mixedOp, error) {
	rng := rand.New(rand.NewSource(seed))
	var own []int
	for i, src := range sourceEntities(ents) {
		if i%clients == client {
			own = append(own, src)
		}
	}
	rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
	readZipf := datagen.NewZipf(rng, 1.1, zipfOffset, uint64(readPool-1))
	keyZipf := datagen.NewZipf(rng, 1.1, zipfOffset, uint64(len(own)-1))
	ops := make([]mixedOp, n)
	for i := range ops {
		if rng.Float64() < 0.8 {
			ops[i] = mixedOp{read: true, item: int(readZipf.Uint64())}
			continue
		}
		e := ents[own[keyZipf.Uint64()]]
		op := mixedOp{entity: e.name}
		var err error
		if rng.Float64() < 0.2 {
			op.path = "/remove"
			op.body, err = json.Marshal(map[string]string{"entity": e.name})
		} else {
			// An upsert rewrites the entity: one of its counts changes and
			// it picks up a cookie from a small shared alphabet, so written
			// entities keep overlapping the queries derived from them.
			op.path = "/add"
			op.counts = make(map[string]uint32, len(e.counts)+1)
			elems := sortedElems(e.counts)
			for _, elem := range elems {
				op.counts[elem] = e.counts[elem]
			}
			op.counts[elems[rng.Intn(len(elems))]] = uint32(1 + rng.Intn(4))
			op.counts[fmt.Sprintf("wcookie-%d", rng.Intn(1000))] = 1
			op.body, err = json.Marshal(map[string]any{"entity": e.name, "elements": op.counts})
		}
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// runClusterMixed is the cluster_mixed workload: reads and writes
// side by side through the router of a 2×2 cluster.
func runClusterMixed(cfg runConfig, rec *recorder) (*windowResult, error) {
	res := &windowResult{}
	corp, err := generateCorpus(servingTraceConfig(cfg.seed, cfg.quick))
	if err != nil {
		return nil, err
	}
	data := datasetOf(corp)
	clients := numClients()
	readPool, schedLen := 4096, 16384
	if cfg.quick {
		readPool, schedLen = 512, 2048
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1)))
	pool, err := makeQueries(rng, corp.ents, readPool, "r")
	if err != nil {
		return nil, err
	}
	scheds := make([][]mixedOp, clients)
	for c := range scheds {
		if scheds[c], err = mixedSchedule(subSeed(cfg.seed, int64(10+c)), c, clients, corp.ents, readPool, schedLen); err != nil {
			return nil, err
		}
	}

	var cs *clusterSystem
	for i := 0; i < cfg.setups; i++ {
		if cs != nil {
			if err := cs.stop(); err != nil {
				return nil, err
			}
		}
		took, err := cfg.probe.timeCorrected(func() (err error) {
			cs, err = startCluster(data, filepath.Join(cfg.scratch, fmt.Sprintf("cluster-%d", i)), rec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set up cluster: %w", err)
		}
		res.setups = append(res.setups, took)
	}
	defer cs.stop()

	hc := cluster.NewHTTPClient(0, 1)
	defer hc.CloseIdleConnections()
	bufs := make([]bytes.Buffer, clients)
	loop := closedLoop(clients, cfg.warmup(), cfg.window, cfg.probe, rec, func(client, seq int, rid string) (int, error) {
		op := &scheds[client][seq%schedLen]
		buf := &bufs[client]
		if !op.read {
			return classWrite, post(hc, cs.router.url+op.path, op.body, rid, buf)
		}
		q := &pool[op.item]
		if err := post(hc, cs.router.url+q.path, q.body, rid, buf); err != nil {
			return classRead, err
		}
		return classRead, wellFormed(q.kind, buf.Bytes())
	})
	res.takeLoop(loop, cfg.window, rec)
	res.cacheHits, res.cacheMisses = cacheTraffic(cs.nodes...)
	st := cs.client.Stats()
	res.hedges, res.repairBacklog = st.Hedges, int64(st.RepairBacklog)

	// The clients are quiet now. Replay each client's executed writes
	// onto a model of the corpus to get the state the cluster must hold,
	// then check fresh queries through the router against an oracle over
	// that state.
	model := make(map[string]map[string]uint32, len(corp.ents))
	for _, e := range corp.ents {
		model[e.name] = e.counts
	}
	for c, sched := range scheds {
		for i := 0; i < loop.next[c]; i++ {
			if op := &sched[i%schedLen]; !op.read {
				if op.counts == nil {
					delete(model, op.entity)
				} else {
					model[op.entity] = op.counts
				}
			}
		}
	}
	final := make([]entity, 0, len(model))
	for name, counts := range model {
		final = append(final, entity{name, counts})
	}
	sort.Slice(final, func(i, j int) bool { return final[i].name < final[j].name })
	o := newOracle(final)
	vrng := rand.New(rand.NewSource(subSeed(cfg.seed, 3)))
	checks, err := makeQueries(vrng, final, verifiedQueries, "v")
	if err != nil {
		return nil, err
	}
	for i := range checks {
		q := &checks[i]
		res.attempted++
		if err := post(hc, cs.router.url+q.path, q.body, "", &bufs[0]); err != nil {
			res.fail("verify query %d: %v", i, err)
			continue
		}
		if d := verifyBody(o, q, bufs[0].Bytes()); d != "" {
			res.fail("%s query %d after quiescing: %s", kindNames[q.kind], i, d)
		}
	}
	return res, nil
}

// removeAll deletes a scratch directory; a failure is reported but does
// not fail the run, whose measurements are already taken.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: remove %s: %v\n", dir, err)
	}
}
