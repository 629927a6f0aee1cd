package httpd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/httpd"
)

func newTestIndex(t *testing.T, dir string) *vsmartjoin.Index {
	t.Helper()
	ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "ruzicka", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func post(t *testing.T, c *http.Client, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp, out
}

// promSample is one parsed exposition sample in document order.
type promSample struct {
	series string // name plus label block, as printed
	name   string
	value  float64
}

// parsePromText validates body against the text exposition grammar the
// scrape contract needs — HELP/TYPE preambles, known types, parseable
// sample values, histogram series only under histogram-typed families —
// and returns the samples keyed by series plus the family type table.
func parsePromText(t *testing.T, body string) (map[string]float64, map[string]string, []promSample) {
	t.Helper()
	types := make(map[string]string)
	helps := make(map[string]bool)
	samples := make(map[string]float64)
	var ordered []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helps[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			if !helps[name] {
				t.Fatalf("line %d: TYPE %s with no preceding HELP", ln+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value: %q", ln+1, line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valText, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
			}
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				family = base
			}
		}
		if types[family] == "" {
			t.Fatalf("line %d: sample %s outside any TYPE-declared family", ln+1, series)
		}
		if family != name && types[family] != "histogram" {
			t.Fatalf("line %d: histogram-suffixed sample under %s type %s", ln+1, family, types[family])
		}
		samples[series] = val
		ordered = append(ordered, promSample{series: series, name: name, value: val})
	}
	return samples, types, ordered
}

// checkHistogram asserts one family's bucket series are cumulative and
// consistent with _count.
func checkHistogram(t *testing.T, name string, samples map[string]float64, ordered []promSample) {
	t.Helper()
	last := -1.0
	infSeen := false
	for _, s := range ordered {
		if s.name != name+"_bucket" {
			continue
		}
		if s.value < last {
			t.Fatalf("%s: bucket %s value %v below predecessor %v (not cumulative)", name, s.series, s.value, last)
		}
		last = s.value
		if strings.Contains(s.series, `le="+Inf"`) {
			infSeen = true
		}
	}
	if !infSeen {
		t.Fatalf("%s: no le=\"+Inf\" bucket", name)
	}
	count, ok := samples[name+"_count"]
	if !ok || count != last {
		t.Fatalf("%s: _count %v != +Inf bucket %v", name, count, last)
	}
}

func TestNodeMetricsEndpoint(t *testing.T) {
	ix := newTestIndex(t, t.TempDir())
	ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
	defer ts.Close()
	c := ts.Client()

	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"entity": "e%d", "elements": {"a": %d, "b": 1}}`, i, i+1)
		if resp, out := post(t, c, ts.URL+"/add", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("add: %d %v", resp.StatusCode, out)
		}
	}
	// Query latency is sampled one query in eight, so run enough
	// distinct (uncacheable-as-repeat) queries that at least one is
	// guaranteed timed.
	for i := 0; i < 24; i++ {
		body := fmt.Sprintf(`{"elements": {"a": %d, "b": 1}, "threshold": 0.1}`, i+1)
		if resp, out := post(t, c, ts.URL+"/query", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %v", resp.StatusCode, out)
		}
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, types, ordered := parsePromText(t, string(raw))

	if samples["vsmart_entities"] != 4 {
		t.Fatalf("vsmart_entities = %v, want 4", samples["vsmart_entities"])
	}
	if samples["vsmart_queries_total"] < 24 {
		t.Fatalf("vsmart_queries_total = %v, want >= 24", samples["vsmart_queries_total"])
	}
	for _, h := range []string{
		"vsmart_query_latency_seconds",
		"vsmart_wal_append_latency_seconds",
		"vsmart_wal_fsync_latency_seconds",
		"vsmart_wal_commit_wait_seconds",
	} {
		if types[h] != "histogram" {
			t.Fatalf("%s: type %q, want histogram", h, types[h])
		}
		checkHistogram(t, h, samples, ordered)
	}
	// 24 uncached queries at 1-in-8 sampling time at least 3; the 4
	// durable adds all land in the WAL append digest.
	if samples["vsmart_query_latency_seconds_count"] < 3 {
		t.Fatalf("query latency count = %v, want >= 3", samples["vsmart_query_latency_seconds_count"])
	}
	if samples["vsmart_wal_records_total"] < 4 {
		t.Fatalf("vsmart_wal_records_total = %v, want >= 4", samples["vsmart_wal_records_total"])
	}
	if samples["vsmart_wal_append_latency_seconds_count"] < 4 {
		t.Fatalf("wal append count = %v, want >= 4", samples["vsmart_wal_append_latency_seconds_count"])
	}
	if _, ok := samples["vsmart_http_rejected_total"]; !ok {
		t.Fatal("admission series missing from scrape")
	}
}

// TestKNNEndpoint covers /knn on a node and on a router over that node:
// elements mode, entity mode (self excluded), the empty query (legal on
// the kNN path only — every entity is then a distance-1 neighbor), and
// the request validation.
func TestKNNEndpoint(t *testing.T) {
	_, router, nodes := startCluster(t, 1)
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"entity": "e%d", "elements": {"a": %d, "b": 1}}`, i, i+1)
		if resp, out := post(t, router.Client(), router.URL+"/add", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("add: %d %v", resp.StatusCode, out)
		}
	}
	type knnResp struct {
		Neighbors []vsmartjoin.Neighbor `json:"neighbors"`
	}
	hc := router.Client()
	ask := func(base, body string) (int, knnResp) {
		t.Helper()
		resp, err := hc.Post(base+"/knn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out knnResp
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	for _, base := range []string{nodes[0].URL, router.URL} {
		// Elements mode: e0 holds exactly {a:1, b:1}, so it is the nearest.
		code, out := ask(base, `{"elements": {"a": 1, "b": 1}, "k": 2}`)
		if code != http.StatusOK || len(out.Neighbors) != 2 || out.Neighbors[0].Entity != "e0" || out.Neighbors[0].Distance != 0 {
			t.Fatalf("%s elements knn: %d %+v", base, code, out.Neighbors)
		}
		// Entity mode: the entity itself never appears in its own list.
		code, out = ask(base, `{"entity": "e0", "k": 10}`)
		if code != http.StatusOK || len(out.Neighbors) != 3 {
			t.Fatalf("%s entity knn: %d %+v", base, code, out.Neighbors)
		}
		for _, n := range out.Neighbors {
			if n.Entity == "e0" {
				t.Fatalf("%s entity knn returned the query entity: %+v", base, out.Neighbors)
			}
		}
		// Empty query: everything is a distance-1 neighbor, names ascending.
		code, out = ask(base, `{"k": 3}`)
		if code != http.StatusOK || len(out.Neighbors) != 3 || out.Neighbors[0] != (vsmartjoin.Neighbor{Entity: "e0", Distance: 1}) {
			t.Fatalf("%s empty knn: %d %+v", base, code, out.Neighbors)
		}
		// Validation: k is mandatory and positive; entity and elements are
		// mutually exclusive; unknown entities are the caller's error.
		for tag, body := range map[string]string{
			"no k":     `{"elements": {"a": 1}}`,
			"zero k":   `{"elements": {"a": 1}, "k": 0}`,
			"both":     `{"entity": "e0", "elements": {"a": 1}, "k": 2}`,
			"unknown":  `{"entity": "ghost", "k": 2}`,
			"bad json": `{"k": `,
		} {
			if code, _ := ask(base, body); code != http.StatusBadRequest {
				t.Fatalf("%s %s: %d, want 400", base, tag, code)
			}
		}
	}
}

// startCluster brings up n single-replica partitions plus a router.
func startCluster(t *testing.T, n int) (*vsmartjoin.Cluster, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var nodes []*httptest.Server
	var topology [][]string
	for i := 0; i < n; i++ {
		ix := newTestIndex(t, "")
		ns := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
		t.Cleanup(ns.Close)
		nodes = append(nodes, ns)
		topology = append(topology, []string{ns.URL})
	}
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
		Nodes:       topology,
		HedgeAfter:  -1,
		HealthEvery: -1,
		RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	router := httptest.NewServer(httpd.NewRouter(c, httpd.Options{}))
	t.Cleanup(router.Close)
	return c, router, nodes
}

func TestRouterMetricsAndStats(t *testing.T) {
	_, router, _ := startCluster(t, 2)
	c := router.Client()

	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"entity": "e%d", "elements": {"a": %d, "b": 2}}`, i, i+1)
		if resp, out := post(t, c, router.URL+"/add", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("add via router: %d %v", resp.StatusCode, out)
		}
	}
	if resp, out := post(t, c, router.URL+"/query", `{"elements": {"a": 2, "b": 2}, "threshold": 0.1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query via router: %d %v", resp.StatusCode, out)
	}

	resp, err := c.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, types, ordered := parsePromText(t, string(raw))
	if samples["vsmart_cluster_queries_total"] < 1 {
		t.Fatalf("cluster queries = %v", samples["vsmart_cluster_queries_total"])
	}
	for _, h := range []string{"vsmart_cluster_query_latency_seconds", "vsmart_cluster_write_latency_seconds"} {
		if types[h] != "histogram" {
			t.Fatalf("%s: type %q", h, types[h])
		}
		checkHistogram(t, h, samples, ordered)
	}
	if samples["vsmart_cluster_write_latency_seconds_count"] < 6 {
		t.Fatalf("write latency count = %v, want >= 6", samples["vsmart_cluster_write_latency_seconds_count"])
	}
	healthy := 0
	for series, v := range samples {
		if strings.HasPrefix(series, "vsmart_cluster_node_healthy{") && v == 1 {
			healthy++
		}
	}
	if healthy != 2 {
		t.Fatalf("healthy node series = %d, want 2", healthy)
	}

	// The /stats satellite: the router surfaces the full ClusterStats.
	resp, err = c.Get(router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats vsmartjoin.ClusterStats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 2 || len(stats.Nodes) != 2 {
		t.Fatalf("stats topology: %+v", stats)
	}
	if stats.WriteLatency.Count < 6 || stats.WriteLatency.P99Ns <= 0 {
		t.Fatalf("stats write latency: %+v", stats.WriteLatency)
	}
	if stats.QueryLatency.Count < 1 {
		t.Fatalf("stats query latency: %+v", stats.QueryLatency)
	}
	if stats.RepairBacklog != 0 {
		t.Fatalf("repair backlog = %d against healthy nodes", stats.RepairBacklog)
	}
}

// TestRouterGolden pins the router's public edge: the GET /stats JSON —
// keys, key order and every counter after a fixed write/query script,
// with the timing fields of the latency digests, the health timestamps
// and the node addresses normalized — and the metric families of
// GET /metrics.
func TestRouterGolden(t *testing.T) {
	cl, router, nodes := startCluster(t, 2)
	c := router.Client()
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"entity": "e%d", "elements": {"a": %d, "b": 2}}`, i, i+1)
		if resp, out := post(t, c, router.URL+"/add", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("add: %d %v", resp.StatusCode, out)
		}
	}
	for _, req := range []struct{ path, body string }{
		{"/bulk", `{"ops": [{"op": "add", "entity": "f1", "elements": {"b": 1, "c": 4}}, {"op": "remove", "entity": "e2"}]}`},
		{"/remove", `{"entity": "e3"}`},
		{"/query", `{"elements": {"a": 2, "b": 2}, "threshold": 0.1}`},
		{"/query", `{"elements": {"a": 2, "b": 2}, "topk": 3}`},
		{"/query", `{"entity": "e1", "threshold": 0.2}`},
		{"/knn", `{"entity": "f1", "k": 2}`},
	} {
		if resp, out := post(t, c, router.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %v", req.path, req.body, resp.StatusCode, out)
		}
	}
	cl.CheckNow(context.Background())

	got := strings.TrimSpace(string(getBody(t, c, router.URL+"/stats")))
	for i, ns := range nodes {
		got = strings.ReplaceAll(got, ns.URL, fmt.Sprintf("node-%d", i))
	}
	got = regexp.MustCompile(`"(mean_ns|p50_ns|p99_ns|p999_ns)":[^,}]+`).ReplaceAllString(got, `"$1":0`)
	got = regexp.MustCompile(`"last_checked":"[^"]*"`).ReplaceAllString(got, `"last_checked":""`)
	const wantStats = `{"partitions":2,"queries":4,"hedges":0,"hedge_wins":0,"failovers":0,"write_fails":0,"repairs":0,"repair_backlog":0,"write_latency":{"count":9,"mean_ns":0,"p50_ns":0,"p99_ns":0,"p999_ns":0},"query_latency":{"count":4,"mean_ns":0,"p50_ns":0,"p99_ns":0,"p999_ns":0},"nodes":[{"addr":"node-0","partition":0,"healthy":true,"last_checked":"","generation":0,"entities":2,"mutations":6,"pending_repair":0},{"addr":"node-1","partition":1,"healthy":true,"last_checked":"","generation":0,"entities":3,"mutations":3,"pending_repair":0}]}`
	if got != wantStats {
		t.Errorf("GET /stats:\n got %s\nwant %s", got, wantStats)
	}

	var families []string
	for _, line := range strings.Split(string(getBody(t, c, router.URL+"/metrics")), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, name)
		}
	}
	const wantFamilies = `vsmart_cluster_partitions gauge
vsmart_cluster_queries_total counter
vsmart_cluster_hedges_total counter
vsmart_cluster_hedge_wins_total counter
vsmart_cluster_failovers_total counter
vsmart_cluster_write_fails_total counter
vsmart_cluster_repairs_total counter
vsmart_cluster_repair_backlog gauge
vsmart_cluster_query_latency_seconds histogram
vsmart_cluster_write_latency_seconds histogram
vsmart_cluster_node_healthy gauge
vsmart_cluster_node_pending_repair gauge
vsmart_http_in_flight_requests gauge
vsmart_http_rejected_total counter`
	if got := strings.Join(families, "\n"); got != wantFamilies {
		t.Errorf("GET /metrics families:\n%s\nwant\n%s", got, wantFamilies)
	}
}

// getBody GETs url and returns the response body, failing on any
// status but 200.
func getBody(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return raw
}

// TestAdmissionControl saturates a MaxInFlight=1 node by parking one
// request inside its handler (the body read blocks on an open pipe),
// then asserts the next request is shed with 429 + Retry-After while
// the probe and scrape endpoints keep answering.
func TestAdmissionControl(t *testing.T) {
	ix := newTestIndex(t, "")
	ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{MaxInFlight: 1}))
	defer ts.Close()
	c := ts.Client()

	pr, pw := io.Pipe()
	blocked := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/add", pr)
		if err != nil {
			blocked <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			blocked <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			blocked <- fmt.Errorf("parked add finished %d", resp.StatusCode)
			return
		}
		blocked <- nil
	}()

	// Wait until the parked request holds the slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(raw), "vsmart_http_in_flight_requests 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked request never acquired the limiter slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// At capacity: work is shed...
	resp, out := post(t, c, ts.URL+"/query", `{"elements": {"a": 1}, "threshold": 0.5}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query at capacity: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if out["error"] == "" {
		t.Fatalf("429 without JSON error body: %v", out)
	}
	// ...but probes and the scrape stay exempt.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during saturation: %d", path, resp.StatusCode)
		}
	}

	// Release the parked request and confirm it completes untouched.
	if _, err := pw.Write([]byte(`{"entity": "late", "elements": {"a": 1}}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}

	// The shed request is on the scrape.
	resp2, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	samples, _, _ := parsePromText(t, string(raw))
	if samples["vsmart_http_rejected_total"] < 1 {
		t.Fatalf("rejected total = %v, want >= 1", samples["vsmart_http_rejected_total"])
	}
}

func TestRequestTracing(t *testing.T) {
	ix := newTestIndex(t, "")
	ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
	defer ts.Close()
	c := ts.Client()

	if resp, out := post(t, c, ts.URL+"/add", `{"entity": "e1", "elements": {"a": 2}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %v", resp.StatusCode, out)
	}

	// Without an inbound ID the server assigns one and echoes it.
	resp, _ := post(t, c, ts.URL+"/query", `{"elements": {"a": 2}, "threshold": 0.5}`)
	if resp.Header.Get(cluster.HeaderRequestID) == "" {
		t.Fatal("no request ID echoed on the response")
	}

	// An inbound ID is kept, echoed, and lands in the debug block with
	// plausible stage timings.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
		bytes.NewReader([]byte(`{"elements": {"a": 2}, "threshold": 0.5, "debug": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderRequestID, "trace-me-42")
	resp2, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get(cluster.HeaderRequestID); got != "trace-me-42" {
		t.Fatalf("inbound request ID not echoed: %q", got)
	}
	var out struct {
		Matches []vsmartjoin.Match `json:"matches"`
		Debug   struct {
			RequestID string `json:"request_id"`
			DecodeNs  int64  `json:"decode_ns"`
			QueryNs   int64  `json:"query_ns"`
			TotalNs   int64  `json:"total_ns"`
		} `json:"debug"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != 1 || out.Matches[0].Entity != "e1" {
		t.Fatalf("debug query matches: %+v", out.Matches)
	}
	d := out.Debug
	if d.RequestID != "trace-me-42" {
		t.Fatalf("debug request_id = %q", d.RequestID)
	}
	if d.DecodeNs < 0 || d.QueryNs <= 0 || d.TotalNs < d.QueryNs {
		t.Fatalf("implausible stage timings: %+v", d)
	}

	// A plain query carries no debug block.
	resp3, plain := post(t, c, ts.URL+"/query", `{"elements": {"a": 2}, "threshold": 0.5}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("plain query: %d", resp3.StatusCode)
	}
	if _, ok := plain["debug"]; ok {
		t.Fatal("debug block present without debug: true")
	}
}

// TestNodeBulkMixedOpsIsOneApply: a /bulk body alternating adds and
// removes used to be cut into same-kind runs, each its own WAL append,
// lock round and (under sync) commit wait. It is one Apply: on a durable
// node a 64-op alternating body costs one append and ends in the state
// the op-at-a-time sequence ends in.
func TestNodeBulkMixedOpsIsOneApply(t *testing.T) {
	open := func() (*vsmartjoin.Index, *httptest.Server) {
		ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Dir: t.TempDir(), SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
		t.Cleanup(func() { ts.Close(); ix.Close() })
		return ix, ts
	}
	bulked, bulkNode := open()
	stepped, stepNode := open()
	for _, node := range []*httptest.Server{bulkNode, stepNode} {
		for i := 0; i < 8; i++ { // something for the removes to find
			body := fmt.Sprintf(`{"entity": "old%d", "elements": {"x": %d}}`, i, i+1)
			if resp, out := post(t, node.Client(), node.URL+"/add", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("seed add: %d %v", resp.StatusCode, out)
			}
		}
	}
	before := bulked.Metrics().WALAppend.Count

	var ops []string
	for i := 0; i < 32; i++ {
		add := fmt.Sprintf(`{"op": "add", "entity": "new%d", "elements": {"y": %d, "x": 1}}`, i%20, i+1)
		remove := fmt.Sprintf(`{"op": "remove", "entity": "old%d"}`, i%12) // some absent, some repeated
		ops = append(ops, add, remove)
		for _, op := range []string{add, remove} {
			if resp, out := post(t, stepNode.Client(), stepNode.URL+"/bulk", `{"ops": [`+op+`]}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("stepped op: %d %v", resp.StatusCode, out)
			}
		}
	}
	resp, out := post(t, bulkNode.Client(), bulkNode.URL+"/bulk", `{"ops": [`+strings.Join(ops, ",")+`]}`)
	if resp.StatusCode != http.StatusOK || out["applied"] != float64(64) || out["entities"] != float64(stepped.Len()) {
		t.Fatalf("bulk: %d %v, want 64 applied and %d entities", resp.StatusCode, out, stepped.Len())
	}
	if appends := bulked.Metrics().WALAppend.Count - before; appends != 1 {
		t.Fatalf("a 64-op mixed /bulk cost %d WAL appends, want 1", appends)
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("new%d", i)
		got, ok := bulked.Elements(name)
		want, wok := stepped.Elements(name)
		if ok != wok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: bulk %v %v, op-at-a-time %v %v", name, got, ok, want, wok)
		}
	}
	for i := 0; i < 12; i++ {
		if _, ok := bulked.Elements(fmt.Sprintf("old%d", i)); ok {
			t.Fatalf("old%d survived its remove", i)
		}
	}
}

// TestRepliesMatchEncodingJSON holds every answer the write and query
// handlers append by hand, on a node and on a router, to what
// json.NewEncoder wrote for the maps they used to build: the body byte
// for byte, and the headers (content type, request ID, length).
func TestRepliesMatchEncodingJSON(t *testing.T) {
	_, router, nodes := startCluster(t, 1)
	node := nodes[0]
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	send := func(ts *httptest.Server, path, body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", path, ct)
		}
		if resp.Header.Get(cluster.HeaderRequestID) == "" {
			t.Fatalf("%s: no request ID", path)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Fatalf("%s: Content-Length %d for %d bytes", path, resp.ContentLength, len(raw))
		}
		return resp.StatusCode, string(raw)
	}
	check := func(ts *httptest.Server, path, body string, code int, want any) {
		t.Helper()
		if gotCode, got := send(ts, path, body); gotCode != code || got != encode(want) {
			t.Fatalf("%s %s: %d %q, want %d %q", path, body, gotCode, got, code, encode(want))
		}
	}
	// Writes through the router, then straight to its one node: the node
	// answers with its entity count, the router without.
	check(router, "/add", `{"entity": "<a&b>", "elements": {"x": 2, "y": 1}}`, 200, map[string]any{"ok": true})
	check(node, "/add", `{"entity": "e\u2028", "elements": {"x": 1}}`, 200, map[string]any{"entities": 2})
	check(router, "/remove", `{"entity": "ghost"}`, 200, map[string]any{"removed": false})
	check(node, "/remove", `{"entity": "ghost"}`, 200, map[string]any{"removed": false, "entities": 2})
	check(router, "/bulk", `{"ops": [{"op": "add", "entity": "f", "elements": {"y": 3}}]}`, 200, map[string]any{"applied": 1})
	check(node, "/bulk", `{"ops": []}`, 200, map[string]any{"applied": 0, "entities": 3})
	check(node, "/bulk", `null`, 200, map[string]any{"applied": 0, "entities": 3})
	check(node, "/remove", `{"entity": "f"}`, 200, map[string]any{"removed": true, "entities": 2})
	check(router, "/remove", `{"entity": "e\u2028"}`, 200, map[string]any{"removed": true})
	check(router, "/add", `{"entity": "e\"q", "elements": {"x": 3, "z": 1}}`, 200, map[string]any{"ok": true})
	// Errors: the payload and its status.
	check(node, "/add", `{"entity": "e"}`, 400, map[string]string{"error": "missing elements"})
	check(router, "/query", `{"entity": "never\"<seen>", "threshold": 0.5}`, 400,
		map[string]string{"error": `cluster: entity "never\"<seen>" not indexed`})
	check(node, "/knn", `{"k": 0}`, 400, map[string]string{"error": "k must be positive"})
	check(router, "/remove", `{}}`, 400, map[string]string{"error": "trailing data after request body"})
	// Answers: decoded and re-encoded the way the handlers used to.
	type answer struct {
		Matches   []vsmartjoin.Match    `json:"matches,omitempty"`
		Neighbors []vsmartjoin.Neighbor `json:"neighbors,omitempty"`
	}
	for _, ts := range []*httptest.Server{node, router} {
		for _, q := range []struct{ path, body string }{
			{"/query", `{"elements": {"x": 2, "y": 1}, "threshold": 0.1}`},
			{"/query", `{"elements": {"x": 2, "y": 1}, "threshold": 0.99}`},
			{"/query", `{"elements": {"z": 1, "x": 1}, "topk": 2}`},
			{"/query", `{"entity": "<a&b>", "threshold": 0}`},
			{"/knn", `{"elements": {"x": 1}, "k": 3}`},
			{"/knn", `{"entity": "e\"q", "k": 1}`},
			{"/knn", `{"entity": "<a&b>", "k": 9}`},
		} {
			code, got := send(ts, q.path, q.body)
			var out answer
			if err := json.Unmarshal([]byte(got), &out); err != nil || code != 200 {
				t.Fatalf("%s %s: %d %q %v", q.path, q.body, code, got, err)
			}
			want := map[string]any{"matches": out.Matches}
			if q.path == "/knn" {
				want = map[string]any{"neighbors": out.Neighbors}
			}
			for k, v := range want {
				if reflect.ValueOf(v).IsNil() {
					want[k] = []struct{}{}
				}
			}
			if got != encode(want) {
				t.Fatalf("%s %s:\n got %q\nwant %q", q.path, q.body, got, encode(want))
			}
		}
	}
}
