package httpd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// These tests swap a node's peer backend, so they live inside the
// package — and so run before the external tests. They leave the
// index's read path alone (a query is answered by the test backend), so
// the pooled query state TestNodeMetricsEndpoint samples through starts
// out as it would without them.

// startNode serves a fresh volatile index as a node, its peer backend
// wrapped by wrap; server, node and index close at test end.
func startNode(t *testing.T, wrap func(cluster.PeerBackend) cluster.PeerBackend) (*Node, *httptest.Server) {
	t.Helper()
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	n := NewNode(ix, Options{})
	n.peer = wrap(n.peer)
	ts := httptest.NewServer(n)
	t.Cleanup(ts.Close)
	t.Cleanup(n.Drain)
	return n, ts
}

func routerOver(t *testing.T, nodes ...string) *vsmartjoin.Cluster {
	t.Helper()
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
		Nodes: [][]string{nodes}, HedgeAfter: -1, HealthEvery: -1, RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// recordingBackend notes the request ID on the context of every query
// and write a node's peer loop runs, and answers queries with nothing.
type recordingBackend struct {
	cluster.PeerBackend
	seen chan<- hop
}

type hop struct{ call, rid string }

func (b recordingBackend) Query(ctx context.Context, q vsmartjoin.Query) (vsmartjoin.QueryResult, error) {
	b.seen <- hop{"query", cluster.RequestID(ctx)}
	return vsmartjoin.QueryResult{}, nil
}

func (b recordingBackend) Apply(ctx context.Context, muts []vsmartjoin.Mutation) ([]bool, error) {
	b.seen <- hop{"apply", cluster.RequestID(ctx)}
	return b.PeerBackend.Apply(ctx, muts)
}

// TestRouterPropagatesRequestID pins the router→node trace contract:
// the ID a client sends to the router arrives, over the peer hop, on the
// context the node answers a query and every routed write under.
func TestRouterPropagatesRequestID(t *testing.T) {
	seen := make(chan hop, 8)
	_, ns := startNode(t, func(b cluster.PeerBackend) cluster.PeerBackend { return recordingBackend{b, seen} })
	router := httptest.NewServer(NewRouter(routerOver(t, ns.URL), Options{}))
	defer router.Close()

	for i, route := range []struct{ path, body, call string }{
		{"/query", `{"elements": {"a": 1}, "threshold": 0.5}`, "query"},
		{"/add", `{"entity": "t1", "elements": {"a": 1}}`, "apply"},
		{"/remove", `{"entity": "t1"}`, "apply"},
		{"/bulk", `{"ops": [{"op": "add", "entity": "t2", "elements": {"a": 1}}, {"op": "remove", "entity": "t2"}]}`, "apply"},
	} {
		want := fmt.Sprintf("hop-hop-%d", i)
		req, err := http.NewRequest(http.MethodPost, router.URL+route.path, bytes.NewReader([]byte(route.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.HeaderRequestID, want)
		resp, err := router.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s via router: %d", route.path, resp.StatusCode)
		}
		if got := resp.Header.Get(cluster.HeaderRequestID); got != want {
			t.Fatalf("%s via router echoed request ID %q, want %q", route.path, got, want)
		}
		select {
		case got := <-seen:
			if got != (hop{route.call, want}) {
				t.Fatalf("node saw %+v, want %s with request ID %s", got, route.call, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("node never saw the routed %s", route.path)
		}
	}
}

// holdingBackend parks every write until release closes.
type holdingBackend struct {
	cluster.PeerBackend
	entered chan<- struct{}
	release <-chan struct{}
}

func (b holdingBackend) Apply(ctx context.Context, muts []vsmartjoin.Mutation) ([]bool, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.PeerBackend.Apply(ctx, muts)
}

// TestNodeDrainWaitsForPeerRequest: Drain returns only once the peer
// request in flight has been answered, and the node takes no peer
// connection after it.
func TestNodeDrainWaitsForPeerRequest(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	node, ns := startNode(t, func(b cluster.PeerBackend) cluster.PeerBackend { return holdingBackend{b, entered, release} })
	c := routerOver(t, ns.URL)
	acked := make(chan error, 1)
	go func() { acked <- c.Add("held", map[string]uint32{"a": 1}) }()
	<-entered

	drained := make(chan struct{})
	go func() {
		node.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned with a peer write in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
	if err := <-acked; err != nil {
		t.Fatalf("held write: %v", err)
	}
	if _, err := c.QueryThreshold(map[string]uint32{"a": 1}, 0); !errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
		t.Fatalf("query after Drain: %v, want the node unavailable", err)
	}
}

// TestMiddlewareSeesEveryPeerRequest: middleware wrapped around a node
// sees each call a router makes over the peer hop as a request of its
// own, carrying the call's request ID — what an access log or a tracer
// around the node records — and the call is answered from inside it; a
// middleware that does not pass a call on fails it.
func TestMiddlewareSeesEveryPeerRequest(t *testing.T) {
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	node := NewNode(ix, Options{})
	seen := make(chan string, 16)
	var swallow atomic.Bool
	ns := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Upgrade") != "" {
			node.ServeHTTP(w, r)
			return
		}
		if !swallow.Load() {
			node.ServeHTTP(w, r)
		}
		seen <- r.Method + " " + r.URL.Path + " " + r.Header.Get(cluster.HeaderRequestID)
	}))
	defer ns.Close()
	defer node.Drain()
	c := routerOver(t, ns.URL)

	ctx := vsmartjoin.WithRequestID(context.Background(), "mw-1")
	if _, err := c.Apply(ctx, []vsmartjoin.Mutation{{Op: vsmartjoin.OpAdd, Entity: "e", Elements: map[string]uint32{"a": 1}}}); err != nil {
		t.Fatal(err)
	}
	ctx = vsmartjoin.WithRequestID(context.Background(), "mw-2")
	res, err := c.Query(ctx, vsmartjoin.Query{Elements: map[string]uint32{"a": 1}, Threshold: 0.5})
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("query through the middleware: %v %v", res, err)
	}
	for _, want := range []string{"GET /peer mw-1", "GET /peer mw-2"} {
		if got := <-seen; got != want {
			t.Fatalf("middleware saw %q, want %q", got, want)
		}
	}

	swallow.Store(true)
	if _, err := c.Query(ctx, vsmartjoin.Query{Elements: map[string]uint32{"a": 1}, Threshold: 0.5}); !errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
		t.Fatalf("query the middleware kept from the node: %v, want the node unavailable", err)
	}
}
