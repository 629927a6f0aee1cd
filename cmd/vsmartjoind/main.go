// Command vsmartjoind serves similarity queries over HTTP — as a
// single node with its own incremental index, or (with -cluster) as a
// stateless router fronting many such nodes as partitions of one
// logical index. Both modes share one server skeleton (internal/httpd)
// and one endpoint surface, so clients and load balancers cannot tell
// them apart on the hot path.
//
// Node-mode endpoints (JSON request/response):
//
//	POST /add      {"entity": "ip-1", "elements": {"cookie-a": 3}}
//	POST /remove   {"entity": "ip-1"}
//	POST /query    {"elements": {"cookie-a": 3}, "threshold": 0.5}
//	POST /query    {"elements": {"cookie-a": 3}, "topk": 10}
//	POST /query    {"entity": "ip-1", "threshold": 0.5}   (query by indexed entity)
//	POST /snapshot {}                                     (force a durable snapshot)
//	POST /bulk     {"ops": [{"op":"add",...}, ...]}       (batched mutations)
//	GET  /entity?name=ip-1                                (stored multiset of an entity)
//	GET  /healthz                                         (liveness: 200 once serving)
//	GET  /readyz                                          (readiness + staleness counters)
//	GET  /stats
//	GET  /peer                                            (Upgrade: the router's binary hop, see below)
//
// Add replaces any previous entity of the same name (upsert). A query
// names either "elements" or an indexed "entity", and either a
// "threshold" in [0,1] or a positive "topk".
//
// With -data-dir the index is durable: mutations are written ahead to
// one log in the directory, a snapshot truncates it once the log
// reaches the size of the snapshot before it, at least 1 MiB (or on
// POST /snapshot), and a killed daemon
// restarts into exactly its prior state. -durability sync additionally
// fsyncs before every acknowledgement, group-committed: the first
// waiting write fsyncs at once, and the writes (and /bulk batches) that
// arrive during that fsync share the next one. On SIGINT/SIGTERM
// the daemon stops accepting connections, drains in-flight requests —
// the routers' peer connections included — writes a final snapshot,
// and exits.
//
// -load preloads a TSV trace (gzip-decompressed on a .gz suffix). When
// -data-dir names a directory with no index yet, the trace is
// bulk-built into a snapshot file first and then opened — one file
// write instead of one write-ahead-logged Add per entity. A data dir that
// already holds an index recovers it and applies the trace as ordinary
// (logged) upserts, a chunk per write; without -data-dir the trace
// loads a volatile index the same way.
//
// -debug-addr starts a second HTTP listener serving net/http/pprof
// under /debug/pprof/ — CPU/heap/mutex profiles of the live daemon.
// The profiling surface is a separate mux on a separate address, never
// mounted on the serving handler; bind it to loopback.
//
// Router mode: -cluster takes the node topology as
// "replica,replica;replica,replica" — partitions separated by ";",
// replica base URLs within a partition by ",". The router holds no
// index: writes route by entity-name hash to the owner partition and
// must reach a majority of its replicas, queries scatter to one
// healthy replica per partition (with per-node timeouts and hedged
// retry) and merge exactly, and a background anti-entropy pass
// re-drives writes that missed a replica. Any number of routers may
// front the same nodes. A router reaches its nodes over one binary hop
// rather than their JSON endpoints: it upgrades a few pooled
// connections per node with GET /peer on the node's -addr and sends
// each call as one framed, checksummed request on them.
//
// Examples:
//
//	vsmartjoind -measure ruzicka -addr :8321 -data-dir /var/lib/vsmartjoin &
//	vsmartjoind -addr :9000 -cluster 'host-a:8321,host-b:8321;host-c:8321,host-d:8321' &
//	curl -s localhost:9000/query -d '{"elements":{"cookie-a":3},"threshold":0.5}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/httpd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsmartjoind: ")
	var (
		addr       = flag.String("addr", "localhost:8321", "listen address")
		measure    = flag.String("measure", "ruzicka", "similarity measure: ruzicka, jaccard, dice, set-dice, cosine, set-cosine, vector-cosine, overlap")
		load       = flag.String("load", "", "TSV trace to preload (entity<TAB>element[<TAB>count] per line, .gz accepted)")
		dataDir    = flag.String("data-dir", "", "durability directory (one write-ahead log + snapshot); empty = volatile")
		durability = flag.String("durability", "os", `acknowledgement contract (needs -data-dir): "os" pushes records to the kernel, "sync" group-commits an fsync before every acknowledgement`)

		debugAddr   = flag.String("debug-addr", "", "profiling listen address serving net/http/pprof under /debug/pprof/; empty = disabled (bind loopback or another private interface — the endpoints expose internals)")
		maxInFlight = flag.Int("max-inflight", 0, "admission control: concurrent requests served before shedding with 429 (0 = default, negative = unlimited)")

		clusterSpec = flag.String("cluster", "", `router mode: node topology "replica,replica;replica,replica" (partitions split by ';', replica URLs by ','); the daemon then routes instead of indexing`)
		nodeTimeout = flag.Duration("node-timeout", 5*time.Second, "router mode: per-node request timeout")
		hedgeAfter  = flag.Duration("hedge-after", 100*time.Millisecond, "router mode: hedge a slow per-partition query attempt to another replica after this long (negative disables)")
		healthEvery = flag.Duration("health-every", 2*time.Second, "router mode: node readiness polling cadence (negative disables)")
		repairEvery = flag.Duration("repair-every", 5*time.Second, "router mode: anti-entropy cadence re-driving missed writes (negative disables)")
	)
	flag.Parse()

	var handler http.Handler
	var closer io.Closer
	if *clusterSpec != "" {
		if *load != "" || *dataDir != "" {
			log.Fatal("-cluster is router mode: -load and -data-dir belong on the nodes")
		}
		topology, err := parseTopology(*clusterSpec)
		if err != nil {
			log.Fatal(err)
		}
		c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
			Nodes:       topology,
			Timeout:     *nodeTimeout,
			HedgeAfter:  *hedgeAfter,
			HealthEvery: *healthEvery,
			RepairEvery: *repairEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes := 0
		for _, p := range topology {
			nodes += len(p)
		}
		log.Printf("routing %d partitions over %d nodes", len(topology), nodes)
		handler, closer = httpd.NewRouter(c, httpd.Options{MaxInFlight: *maxInFlight}), closerFunc(func() error { c.Close(); return nil })
	} else {
		opts := vsmartjoin.IndexOptions{Measure: *measure, Dir: *dataDir}
		switch *durability {
		case "os":
		case "sync":
			opts.Durability = vsmartjoin.DurabilitySync
		default:
			log.Fatalf(`-durability %q: want "os" or "sync"`, *durability)
		}
		ix, err := openIndex(opts, *load, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving %s similarity", *measure)
		handler, closer = nodeServer(ix, httpd.Options{MaxInFlight: *maxInFlight})
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		// The debug server lives on its own mux and listener so the
		// profiling surface can never leak onto the serving address. It
		// shares the signal context: a long-running CPU profile or trace
		// download is drained on SIGINT/SIGTERM like any serving request
		// rather than cut off mid-stream by process exit.
		go func() {
			if err := serveDebug(ctx, dln); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
	}
	log.Printf("listening on http://%s", ln.Addr())
	if err := serve(ctx, &http.Server{Handler: handler}, ln, closer); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained; closed cleanly")
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// nodeServer wires ix to the node API and returns the closer serve runs
// once HTTP has drained: it waits out the routers' peer connections —
// hijacked, so http.Server.Shutdown does not — letting each finish the
// request in hand, then closes the index, which writes the final
// snapshot.
func nodeServer(ix *vsmartjoin.Index, opts httpd.Options) (http.Handler, io.Closer) {
	node := httpd.NewNode(ix, opts)
	return node, closerFunc(func() error {
		node.Drain()
		return ix.Close()
	})
}

// debugMux is the opt-in profiling surface behind -debug-addr: the
// net/http/pprof handlers mounted explicitly on a private mux, so
// nothing here ever registers on the serving handler (or depends on
// http.DefaultServeMux). Split from main so tests can assert both that
// the endpoints answer here and that the node/router muxes don't serve
// them.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveDebug runs the pprof listener until ctx is cancelled, then
// drains it gracefully (bounded, since a pprof trace stream can be
// arbitrarily long). Split from main so tests can drive it.
func serveDebug(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: debugMux()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		return fmt.Errorf("debug drain: %w", err)
	}
	return nil
}

// parseTopology turns the -cluster flag into the NewCluster node grid:
// ";" separates partitions, "," separates a partition's replica URLs.
func parseTopology(spec string) ([][]string, error) {
	var out [][]string
	for pi, part := range strings.Split(spec, ";") {
		var replicas []string
		for _, addr := range strings.Split(part, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				replicas = append(replicas, addr)
			}
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-cluster: partition %d has no nodes", pi)
		}
		out = append(out, replicas)
	}
	if len(out) == 0 {
		return nil, errors.New("-cluster: empty topology")
	}
	return out, nil
}

// serve runs srv on ln until it fails or ctx is cancelled (a shutdown
// signal); on cancellation it drains in-flight requests and closes the
// backend — for a node that writes a final snapshot when the index is
// durable, for a router it stops the health and repair loops. Split
// from main so tests can drive the full shutdown path.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, backend io.Closer) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Drain failure must not skip the final snapshot.
		backend.Close()
		return fmt.Errorf("drain: %w", err)
	}
	return backend.Close()
}

// openIndex brings up the index for the flag combination: recover an
// existing data dir, bulk-build a fresh one from the -load trace, or
// fall back to a volatile (or freshly created durable) index with the
// trace applied as chunked upserts. logf keeps the decision visible in
// the daemon log; tests pass a no-op.
func openIndex(opts vsmartjoin.IndexOptions, load string, logf func(string, ...any)) (*vsmartjoin.Index, error) {
	if opts.Dir == "" {
		ix, err := vsmartjoin.NewIndex(opts)
		if err != nil {
			return nil, err
		}
		if load != "" {
			n, err := preload(ix, load)
			if err != nil {
				return nil, err
			}
			logf("preloaded %d entities from %s", n, load)
		}
		return ix, nil
	}

	ix, err := vsmartjoin.OpenIndex(opts)
	switch {
	case err == nil:
		logf("recovered %d entities from %s (generation %d)", ix.Len(), opts.Dir, ix.Generation())
		// An existing index already absorbed any earlier bulk load; the
		// trace applies as ordinary upserts on top of it.
		if load != "" {
			n, err := preload(ix, load)
			if err != nil {
				ix.Close()
				return nil, err
			}
			logf("preloaded %d entities from %s", n, load)
		}
		return ix, nil
	case errors.Is(err, vsmartjoin.ErrNoIndex) && load != "":
		// Fresh data dir + trace: the bulk path. Write the snapshot file
		// directly, then open it — no per-record WAL appends.
		d, _, err := vsmartjoin.ReadTraceFile(load)
		if err != nil {
			return nil, err
		}
		bs, err := vsmartjoin.BuildIndexFiles(d, opts)
		if err != nil {
			return nil, err
		}
		ix, err := vsmartjoin.OpenIndex(opts)
		if err != nil {
			return nil, err
		}
		logf("bulk-built %d entities from %s into %s", bs.Entities, load, opts.Dir)
		return ix, nil
	case errors.Is(err, vsmartjoin.ErrNoIndex):
		ix, err := vsmartjoin.NewIndex(opts)
		if err != nil {
			return nil, err
		}
		logf("created empty index at %s", opts.Dir)
		return ix, nil
	default:
		return nil, err
	}
}

// preload feeds a cmd/vsmartjoin-format TSV trace (.gz accepted) into
// the index, merging repeated observations of an entity before the
// (upsert) AddDataset.
func preload(ix *vsmartjoin.Index, path string) (int, error) {
	d, _, err := vsmartjoin.ReadTraceFile(path)
	if err != nil {
		return 0, err
	}
	if err := ix.AddDataset(d); err != nil {
		return 0, err
	}
	return d.Len(), nil
}
