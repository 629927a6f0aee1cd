package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/httpd"
)

// testClient is the one HTTP client every test dials daemons with — a
// bounded pool with a timeout, never http.DefaultClient (which has
// neither and would hang a test forever on a stuck handler).
var testClient = cluster.NewHTTPClient(10*time.Second, 8)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := testClient.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decode: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestDaemonRoundTrip(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"entity": "ip-1", "elements": {"a": 3, "b": 1, "c": 2}}`,
		`{"entity": "ip-2", "elements": {"a": 2, "b": 2, "c": 2}}`,
		`{"entity": "ip-3", "elements": {"z": 9}}`,
	} {
		if code, out := post(t, ts, "/add", body); code != http.StatusOK {
			t.Fatalf("add: %d %v", code, out)
		}
	}

	code, out := post(t, ts, "/query", `{"elements": {"a": 3, "b": 1, "c": 2}, "threshold": 0.5}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	matches := out["matches"].([]any)
	if len(matches) != 2 {
		t.Fatalf("matches: %v", matches)
	}
	first := matches[0].(map[string]any)
	if first["entity"] != "ip-1" || first["similarity"].(float64) != 1 {
		t.Fatalf("first match: %v", first)
	}

	// Query by indexed entity excludes the entity itself.
	code, out = post(t, ts, "/query", `{"entity": "ip-1", "threshold": 0.5}`)
	if code != http.StatusOK {
		t.Fatalf("entity query: %d %v", code, out)
	}
	matches = out["matches"].([]any)
	if len(matches) != 1 || matches[0].(map[string]any)["entity"] != "ip-2" {
		t.Fatalf("entity query matches: %v", matches)
	}

	// Top-k.
	code, out = post(t, ts, "/query", `{"elements": {"a": 1}, "topk": 1}`)
	if code != http.StatusOK || len(out["matches"].([]any)) != 1 {
		t.Fatalf("topk: %d %v", code, out)
	}

	// Remove, then the pair is gone.
	if code, out := post(t, ts, "/remove", `{"entity": "ip-2"}`); code != http.StatusOK || out["removed"] != true {
		t.Fatalf("remove: %d %v", code, out)
	}
	if code, out := post(t, ts, "/remove", `{"entity": "ip-2"}`); code != http.StatusOK || out["removed"] != false {
		t.Fatalf("re-remove: %d %v", code, out)
	}
	code, out = post(t, ts, "/query", `{"entity": "ip-1", "threshold": 0.5}`)
	if code != http.StatusOK || len(out["matches"].([]any)) != 0 {
		t.Fatalf("query after remove: %d %v", code, out)
	}

	// Stats reflect the traffic.
	resp, err := testClient.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats vsmartjoin.IndexStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Measure != "ruzicka" || stats.Entities != 2 || stats.Adds != 3 || stats.Removes != 1 || stats.Queries < 4 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestDaemonValidation(t *testing.T) {
	ts := testServer(t)
	for path, bodies := range map[string][]string{
		"/add": {
			`{"elements": {"a": 1}}`,     // missing entity
			`{"entity": "e"}`,            // missing elements
			`{"entity": "e", "nope": 1}`, // unknown field
			`not json`,
		},
		"/remove": {
			`{}`,
		},
		"/query": {
			`{"elements": {"a": 1}}`,                              // neither threshold nor topk
			`{"elements": {"a": 1}, "threshold": 0.5, "topk": 3}`, // both
			`{"threshold": 0.5}`,                                  // no query
			`{"entity": "e", "elements": {"a": 1}, "topk": 2}`,    // both query forms
			`{"elements": {"a": 1}, "threshold": 1.5}`,            // above range
			`{"elements": {"a": 1}, "threshold": -0.1}`,           // below range (AllPairs' rules)
			`{"elements": {"a": 1}, "topk": -1}`,                  // negative k
			`{"entity": "e", "topk": 2}`,                          // topk by entity unsupported
			`{"entity": "never-added-entity", "threshold": 0.5}`,  // unknown entity
			`{"elements": {"a": 1}, "threshold": 0.5} trailing`,   // trailing garbage
			`{"elements": {"a": 1}, "threshold": 0.5}}`,           // a stray closing brace
			`{"elements": {"a": 1}, "threshold": 0.5}]`,           // a stray closing bracket
		},
	} {
		for _, body := range bodies {
			if code, out := post(t, ts, path, body); code != http.StatusBadRequest || out["error"] == "" {
				t.Fatalf("%s %s: %d %v", path, body, code, out)
			}
		}
	}
	// Wrong method is routed away by the mux.
	resp, err := testClient.Get(ts.URL + "/add")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /add: %d", resp.StatusCode)
	}
}

// TestDaemonDurableRestart drives the full daemon lifecycle: serve a
// durable index, mutate it over HTTP, force a snapshot via
// POST /snapshot, shut down gracefully (the SIGINT path minus the
// signal), and restart into exactly the prior state.
func TestDaemonDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opts := vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: dir}
	ix, err := vsmartjoin.NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, &http.Server{Handler: httpd.NewNode(ix, httpd.Options{})}, ln, ix) }()
	ts := &httptest.Server{URL: "http://" + ln.Addr().String()}

	for _, body := range []string{
		`{"entity": "ip-1", "elements": {"a": 3, "b": 1}}`,
		`{"entity": "ip-2", "elements": {"a": 3, "b": 1}}`,
		`{"entity": "gone", "elements": {"z": 1}}`,
	} {
		if code, out := post(t, ts, "/add", body); code != http.StatusOK {
			t.Fatalf("add: %d %v", code, out)
		}
	}
	if code, out := post(t, ts, "/snapshot", `{}`); code != http.StatusOK || out["snapshot"] != true {
		t.Fatalf("snapshot: %d %v", code, out)
	}
	// Mutations after the snapshot land in the new WAL generation.
	if code, out := post(t, ts, "/remove", `{"entity": "gone"}`); code != http.StatusOK || out["removed"] != true {
		t.Fatalf("remove: %d %v", code, out)
	}

	cancel() // the shutdown signal: drain, final snapshot, close
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not drain")
	}

	reopened, err := vsmartjoin.NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 2 {
		t.Fatalf("recovered %d entities, want 2", reopened.Len())
	}
	got, err := reopened.QueryEntity("ip-1", 0.9)
	if err != nil || len(got) != 1 || got[0].Entity != "ip-2" || got[0].Similarity != 1 {
		t.Fatalf("recovered query: %v %v", got, err)
	}
	if _, err := reopened.QueryEntity("gone", 0); err == nil {
		t.Fatal("removed entity survived restart")
	}
}

// TestDaemonDrainsHeldPeerWrite drives the node shutdown path with a
// router write in flight on its peer connection: a middleware around
// the node holds the write when the shutdown signal arrives. The drain
// must wait for it and let it finish — the router gets its ack — and
// the final snapshot must hold it after a restart.
func TestDaemonDrainsHeldPeerWrite(t *testing.T) {
	dir := t.TempDir()
	opts := vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: dir, Durability: vsmartjoin.DurabilitySync}
	ix, err := vsmartjoin.NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node, closer := nodeServer(ix, httpd.Options{})
	held, release := make(chan struct{}), make(chan struct{})
	var holding atomic.Bool
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Upgrades pass; the first call over the peer hop waits.
		if r.URL.Path == cluster.PeerPath && r.Header.Get("Upgrade") == "" && holding.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
		node.ServeHTTP(w, r)
	})
	done := make(chan error, 1)
	go func() { done <- serve(ctx, &http.Server{Handler: handler}, ln, closer) }()

	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
		Nodes: [][]string{{ln.Addr().String()}}, HedgeAfter: -1, HealthEvery: -1, RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acked := make(chan error, 1)
	go func() { acked <- c.Add("held", map[string]uint32{"a": 1}) }()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the routed write never reached the node")
	}

	cancel() // in flight, not yet applied: the shutdown signal
	select {
	case err := <-done:
		t.Fatalf("shutdown finished with a peer write in flight: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not drain")
	}
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("held write: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held write never acknowledged")
	}
	// The drained node is gone for the router too: no peer connection
	// outlives the shutdown to answer from a closed index.
	if _, err := c.QueryThreshold(map[string]uint32{"a": 1}, 0); !errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
		t.Fatalf("query after shutdown: %v, want the node unavailable", err)
	}

	reopened, err := vsmartjoin.NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, ok := reopened.Elements("held"); !ok || got["a"] != 1 {
		t.Fatalf("held write after restart: %v %v", got, ok)
	}
}

// TestDaemonSnapshotVolatile: /snapshot on an index without -data-dir
// is a conflict, not a crash.
func TestDaemonSnapshotVolatile(t *testing.T) {
	ts := testServer(t)
	if code, out := post(t, ts, "/snapshot", `{}`); code != http.StatusConflict || out["error"] == "" {
		t.Fatalf("volatile snapshot: %d %v", code, out)
	}
}

func TestPreload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.tsv")
	trace := "# comment\n" +
		"ip-1\ta\t3\n" +
		"ip-1\ta\t2\n" + // repeated observations merge
		"ip-1\tb\n" + // count defaults to 1
		"ip-2\ta\t5\n" +
		"ip-2\tb\t1\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := preload(ix, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || ix.Len() != 2 {
		t.Fatalf("preloaded %d, len %d", n, ix.Len())
	}
	got, err := ix.QueryEntity("ip-1", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entity != "ip-2" || got[0].Similarity != 1 {
		t.Fatalf("merged trace mismatch: %v", got)
	}

	if _, err := preload(ix, filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Fatal("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.tsv")
	if err := os.WriteFile(bad, []byte("only-one-field\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := preload(ix, bad); err == nil {
		t.Fatal("malformed line should error")
	}
}

// TestDaemonHealthAndReadiness: /healthz is pure liveness, /readyz
// carries the staleness counters (generation, entities, mutations) a
// router compares across replicas.
func TestDaemonHealthAndReadiness(t *testing.T) {
	dir := t.TempDir()
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
	defer ts.Close()
	if err := ix.Add("a", map[string]uint32{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("b", map[string]uint32{"y": 2}); err != nil {
		t.Fatal(err)
	}

	getJSON := func(path string) map[string]any {
		t.Helper()
		resp, err := testClient.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := getJSON("/healthz"); out["serving"] != true {
		t.Fatalf("healthz payload: %v", out)
	}
	out := getJSON("/readyz")
	if out["ready"] != true || out["measure"] != "ruzicka" {
		t.Fatalf("readyz payload: %v", out)
	}
	// 2 adds + 1 remove = 3 mutations, 1 live entity, generation 1.
	for field, want := range map[string]float64{"mutations": 3, "entities": 1, "generation": 1} {
		if out[field].(float64) != want {
			t.Fatalf("readyz %s = %v, want %v (payload %v)", field, out[field], want, out)
		}
	}
}

// TestDaemonBulkAndEntity: the node-side endpoints the cluster router
// depends on — /bulk batched mutations and /entity multiset reads.
func TestDaemonBulkAndEntity(t *testing.T) {
	ts := testServer(t)
	code, out := post(t, ts, "/bulk", `{"ops": [
		{"op": "add", "entity": "ip-1", "elements": {"a": 3, "b": 1}},
		{"op": "add", "entity": "ip-2", "elements": {"a": 3, "b": 1}},
		{"op": "add", "entity": "gone", "elements": {"z": 1}},
		{"op": "remove", "entity": "gone"}
	]}`)
	if code != http.StatusOK || out["applied"].(float64) != 4 || out["entities"].(float64) != 2 {
		t.Fatalf("bulk: %d %v", code, out)
	}
	// A malformed op rejects the whole batch before anything applies.
	code, out = post(t, ts, "/bulk", `{"ops": [
		{"op": "add", "entity": "ip-3", "elements": {"c": 1}},
		{"op": "frobnicate", "entity": "ip-4"}
	]}`)
	if code != http.StatusBadRequest || out["error"] == "" {
		t.Fatalf("bad bulk: %d %v", code, out)
	}
	if code, out = post(t, ts, "/query", `{"entity": "ip-3", "threshold": 0}`); code != http.StatusBadRequest {
		t.Fatalf("half-applied batch: %d %v", code, out)
	}

	resp, err := testClient.Get(ts.URL + "/entity?name=ip-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ent struct {
		Entity   string            `json:"entity"`
		Elements map[string]uint32 `json:"elements"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ent); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ent.Entity != "ip-1" || ent.Elements["a"] != 3 || ent.Elements["b"] != 1 {
		t.Fatalf("entity: %d %+v", resp.StatusCode, ent)
	}
	resp2, err := testClient.Get(ts.URL + "/entity?name=gone")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("removed entity: %d", resp2.StatusCode)
	}
}

// TestParseTopology covers the -cluster flag grammar.
func TestParseTopology(t *testing.T) {
	got, err := parseTopology("a:1,b:2; c:3 ,d:4")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:1", "b:2"}, {"c:3", "d:4"}}
	if len(got) != 2 || got[0][0] != want[0][0] || got[0][1] != want[0][1] || got[1][0] != want[1][0] || got[1][1] != want[1][1] {
		t.Fatalf("topology: %v", got)
	}
	for _, bad := range []string{"", ";", "a:1;;b:2", " , "} {
		if _, err := parseTopology(bad); err == nil {
			t.Fatalf("parseTopology(%q) should error", bad)
		}
	}
}

// TestDaemonRouterMode spawns three node daemons and a router
// in-process and drives the full write/query surface through the
// router — the daemon-level integration of the cluster subsystem (the
// exhaustive differential lives in the root package's cluster tests).
func TestDaemonRouterMode(t *testing.T) {
	var topology [][]string
	for i := 0; i < 3; i++ {
		ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
		t.Cleanup(ts.Close)
		topology = append(topology, []string{ts.URL})
	}
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
		Nodes: topology, HealthEvery: -1, RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	router := httptest.NewServer(httpd.NewRouter(c, httpd.Options{}))
	t.Cleanup(router.Close)

	for _, body := range []string{
		`{"entity": "ip-1", "elements": {"a": 3, "b": 1, "c": 2}}`,
		`{"entity": "ip-2", "elements": {"a": 2, "b": 2, "c": 2}}`,
		`{"entity": "ip-3", "elements": {"z": 9}}`,
	} {
		if code, out := post(t, router, "/add", body); code != http.StatusOK {
			t.Fatalf("router add: %d %v", code, out)
		}
	}
	code, out := post(t, router, "/query", `{"elements": {"a": 3, "b": 1, "c": 2}, "threshold": 0.5}`)
	if code != http.StatusOK {
		t.Fatalf("router query: %d %v", code, out)
	}
	matches := out["matches"].([]any)
	if len(matches) != 2 || matches[0].(map[string]any)["entity"] != "ip-1" {
		t.Fatalf("router matches: %v", matches)
	}
	code, out = post(t, router, "/query", `{"entity": "ip-1", "threshold": 0.5}`)
	if code != http.StatusOK || len(out["matches"].([]any)) != 1 {
		t.Fatalf("router entity query: %d %v", code, out)
	}
	if code, out = post(t, router, "/remove", `{"entity": "ip-2"}`); code != http.StatusOK || out["removed"] != true {
		t.Fatalf("router remove: %d %v", code, out)
	}
	// Validation runs in the shared skeleton: same 400s as node mode.
	if code, out = post(t, router, "/query", `{"elements": {"a": 1}}`); code != http.StatusBadRequest {
		t.Fatalf("router validation: %d %v", code, out)
	}
	// Router readiness: all partitions reachable.
	resp, err := testClient.Get(router.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ready["ready"] != true || ready["write_ready"] != true {
		t.Fatalf("router readyz: %d %v", resp.StatusCode, ready)
	}
}

const healthzTrace = "ip-1\ta\t3\n" +
	"ip-1\tb\n" +
	"ip-2\ta\t3\n" +
	"ip-2\tb\t1\n" +
	"ip-3\tz\t9\n"

// TestPreloadGzip: -load sniffs a .gz suffix and decompresses.
func TestPreloadGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.tsv.gz")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(healthzTrace)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := preload(ix, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || ix.Len() != 3 {
		t.Fatalf("preloaded %d, len %d", n, ix.Len())
	}
	got, err := ix.QueryEntity("ip-1", 0.9)
	if err != nil || len(got) != 1 || got[0].Entity != "ip-2" {
		t.Fatalf("gzip trace mismatch: %v %v", got, err)
	}
}

// TestOpenIndexBulkBootstrap drives the daemon's -load + -data-dir
// decision: a fresh data dir bulk-builds the trace into snapshot files
// (zero WAL replay), a second start recovers the files without the
// trace, and a third start with the trace upserts through the
// incremental path.
func TestOpenIndexBulkBootstrap(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.tsv")
	if err := os.WriteFile(trace, []byte(healthzTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	opts := vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: dir}
	logf := func(string, ...any) {}

	ix, err := openIndex(opts, trace, logf)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 || ix.Generation() != 1 {
		t.Fatalf("bulk bootstrap: len %d gen %d", ix.Len(), ix.Generation())
	}
	// The bootstrapped entities must register as mutations: /readyz
	// reports Adds+Removes, and a daemon serving 3 entities claiming
	// "mutations: 0" reads as an empty index to operators.
	if st := ix.Stats(); st.Adds != 3 {
		t.Fatalf("bulk bootstrap reports Adds %d, want 3 (stats %+v)", st.Adds, st)
	}
	ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
	resp, err := testClient.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if got, _ := ready["mutations"].(float64); got != 3 {
		t.Fatalf("/readyz after bulk bootstrap reports mutations %v, want 3 (%v)", ready["mutations"], ready)
	}
	// Bulk path means a snapshot file, not WAL records: the WAL must be
	// empty right after the bootstrap.
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") {
			st, err := d.Info()
			if err != nil {
				return err
			}
			if st.Size() != 0 {
				t.Fatalf("bootstrap left %d WAL bytes in %s", st.Size(), path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart without the trace: plain recovery.
	ix2, err := openIndex(opts, "", logf)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 3 {
		t.Fatalf("recovered len %d", ix2.Len())
	}
	if err := ix2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the trace against the existing index: incremental
	// upserts (idempotent here — same entities).
	ix3, err := openIndex(opts, trace, logf)
	if err != nil {
		t.Fatal(err)
	}
	defer ix3.Close()
	if ix3.Len() != 3 {
		t.Fatalf("re-preloaded len %d", ix3.Len())
	}
	got, err := ix3.QueryEntity("ip-1", 0.9)
	if err != nil || len(got) != 1 || got[0].Entity != "ip-2" {
		t.Fatalf("query after restart: %v %v", got, err)
	}
}

// TestDebugMux pins the -debug-addr contract: the pprof surface answers
// on the debug mux and ONLY there — the serving handler (node or
// router) must not expose /debug/pprof/ no matter what got registered
// on http.DefaultServeMux by imports.
func TestDebugMux(t *testing.T) {
	dbg := httptest.NewServer(debugMux())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := testClient.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug %s: status %d", path, resp.StatusCode)
		}
	}

	ts := testServer(t)
	resp, err := testClient.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("serving mux exposes /debug/pprof/ (status %d)", resp.StatusCode)
	}
}

// TestServeDebugGracefulShutdown drives the -debug-addr lifecycle: the
// pprof listener answers while the signal context is live, and
// cancelling the context (SIGINT/SIGTERM) drains it cleanly instead of
// abandoning the goroutine to process exit.
func TestServeDebugGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveDebug(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/debug/pprof/cmdline"
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug endpoint before shutdown: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveDebug: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("debug server did not drain")
	}
	if _, err := testClient.Get(url); err == nil {
		t.Fatal("debug listener still answering after shutdown")
	}
}
