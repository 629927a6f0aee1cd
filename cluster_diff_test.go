package vsmartjoin_test

// The cluster differential harness: a Cluster of real vsmartjoind
// nodes (in-process, internal/httpd over real Indexes) must answer
// every query BYTE-IDENTICALLY to a single merged Index oracle fed the
// same mutations — across partition counts, replica counts, measures,
// after churn, and with a replica killed. This is the gate that makes
// "scatter-gather merge is exact" a tested property instead of a
// design claim.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"

	"vsmartjoin"
	"vsmartjoin/internal/httpd"
)

var clusterDiffMeasures = []string{"ruzicka", "jaccard", "dice", "cosine"}

// clusterEntities builds a deterministic corpus with deliberate
// structure: a shared alphabet small enough to force overlaps, a few
// exact-duplicate multisets (similarity ties, the canonical-ordering
// stress), and per-entity unique elements (out-of-alphabet queries).
func clusterEntities(rng *rand.Rand, n int) map[string]map[string]uint32 {
	out := make(map[string]map[string]uint32, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("e%03d", i)
		m := make(map[string]uint32)
		for j, k := 0, 2+rng.Intn(6); j < k; j++ {
			m[fmt.Sprintf("w%d", rng.Intn(24))] = uint32(1 + rng.Intn(4))
		}
		if i%7 == 0 {
			m[fmt.Sprintf("uniq%d", i)] = 2
		}
		out[name] = m
	}
	// Exact duplicates: every "dupN" shares one multiset, so whole tie
	// groups cross the top-k boundary.
	for i := 0; i < 6; i++ {
		out[fmt.Sprintf("dup%d", i)] = map[string]uint32{"w1": 3, "w2": 1, "tie": 2}
	}
	return out
}

// clusterUnderTest is one running topology plus its oracle.
type clusterUnderTest struct {
	cluster *vsmartjoin.Cluster
	oracle  *vsmartjoin.Index
	servers [][]nodeServer
}

// nodeServer is one node daemon of a test cluster. Close kills it the way
// a process exit would: the listener, and the router's peer connections,
// which the node hijacked from the HTTP server and so outlive
// httptest.Server.Close.
type nodeServer struct {
	*httptest.Server
	node *httpd.Node
}

func (n nodeServer) Close() {
	n.Server.Close()
	n.node.Drain()
}

// startCluster spins up partitions×replicas node daemons (each a real
// Index behind the real node handler) and a router over them, plus a
// single-Index oracle.
func startCluster(t *testing.T, measure string, partitions, replicas int) *clusterUnderTest {
	t.Helper()
	cut := &clusterUnderTest{}
	var topo [][]string
	for p := 0; p < partitions; p++ {
		var row []nodeServer
		var addrs []string
		for r := 0; r < replicas; r++ {
			ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: measure})
			if err != nil {
				t.Fatal(err)
			}
			node := httpd.NewNode(ix, httpd.Options{})
			ts := httptest.NewServer(node)
			t.Cleanup(nodeServer{ts, node}.Close)
			row = append(row, nodeServer{ts, node})
			addrs = append(addrs, ts.URL)
		}
		cut.servers = append(cut.servers, row)
		topo = append(topo, addrs)
	}
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{
		Nodes: topo, HealthEvery: -1, RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cut.cluster = c
	cut.oracle, err = vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

func (cut *clusterUnderTest) add(t *testing.T, entity string, counts map[string]uint32) {
	t.Helper()
	if err := cut.cluster.Add(entity, counts); err != nil {
		t.Fatalf("cluster add %q: %v", entity, err)
	}
	if err := cut.oracle.Add(entity, counts); err != nil {
		t.Fatal(err)
	}
}

func (cut *clusterUnderTest) remove(t *testing.T, entity string) {
	t.Helper()
	removed, err := cut.cluster.Remove(entity)
	if err != nil {
		t.Fatalf("cluster remove %q: %v", entity, err)
	}
	want, err := cut.oracle.Remove(entity)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Fatalf("remove %q: cluster %v, oracle %v", entity, removed, want)
	}
}

// mustMatch demands byte-identical JSON between a cluster answer and
// the oracle's — value equality would already be strong, byte equality
// also pins the canonical ordering and float encoding.
func mustMatch(t *testing.T, tag string, got, want []vsmartjoin.Match, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	gj, jerr := json.Marshal(got)
	if jerr != nil {
		t.Fatal(jerr)
	}
	wj, jerr := json.Marshal(want)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s:\ncluster %s\noracle  %s", tag, gj, wj)
	}
}

// mustMatchNeighbors is mustMatch for kNN answers.
func mustMatchNeighbors(t *testing.T, tag string, got, want []vsmartjoin.Neighbor, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	gj, jerr := json.Marshal(got)
	if jerr != nil {
		t.Fatal(jerr)
	}
	wj, jerr := json.Marshal(want)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s:\ncluster %s\noracle  %s", tag, gj, wj)
	}
}

// compare runs the full probe battery: element-map threshold queries
// (several thresholds including 0 and 1), top-k at and around tie
// boundaries, kNN (including the empty query, legal only on the kNN
// path, where every entity is a distance-1 neighbor), and
// entity-relative queries in both similarity and distance form.
func (cut *clusterUnderTest) compare(t *testing.T, tag string, probes []map[string]uint32, entityProbes []string) {
	t.Helper()
	for pi, probe := range probes {
		for _, thr := range []float64{0, 0.35, 0.6, 1} {
			got, err := cut.cluster.QueryThreshold(probe, thr)
			want, werr := cut.oracle.QueryThreshold(probe, thr)
			if werr != nil {
				t.Fatal(werr)
			}
			mustMatch(t, fmt.Sprintf("%s probe %d threshold %v", tag, pi, thr), got, want, err)
		}
		for _, k := range []int{1, 2, 5, 10, 1000} {
			got, err := cut.cluster.QueryTopK(probe, k)
			want := cut.oracle.QueryTopK(probe, k)
			mustMatch(t, fmt.Sprintf("%s probe %d topk %d", tag, pi, k), got, want, err)
		}
	}
	knnProbes := append([]map[string]uint32{{}}, probes...)
	for pi, probe := range knnProbes {
		for _, k := range []int{1, 5, 50} {
			got, err := cut.cluster.QueryKNN(probe, k)
			want := cut.oracle.QueryKNN(probe, k)
			mustMatchNeighbors(t, fmt.Sprintf("%s probe %d knn %d", tag, pi, k), got, want, err)
		}
	}
	for _, entity := range entityProbes {
		for _, thr := range []float64{0, 0.5} {
			got, err := cut.cluster.QueryEntity(entity, thr)
			want, werr := cut.oracle.QueryEntity(entity, thr)
			if werr != nil {
				t.Fatal(werr)
			}
			mustMatch(t, fmt.Sprintf("%s entity %q threshold %v", tag, entity, thr), got, want, err)
		}
		for _, k := range []int{1, 5, 50} {
			got, err := cut.cluster.QueryKNNEntity(entity, k)
			want, werr := cut.oracle.QueryKNNEntity(entity, k)
			if werr != nil {
				t.Fatal(werr)
			}
			mustMatchNeighbors(t, fmt.Sprintf("%s entity %q knn %d", tag, entity, k), got, want, err)
		}
	}
}

// TestClusterDifferential is the acceptance gate: {1,3} partitions ×
// {1,2} replicas × four measures, compared against the oracle after
// initial load, after churn (removals and upserts), and — when
// replicas allow it — after killing one node.
func TestClusterDifferential(t *testing.T) {
	for _, measure := range clusterDiffMeasures {
		for _, partitions := range []int{1, 3} {
			for _, replicas := range []int{1, 2} {
				name := fmt.Sprintf("%s/p%d/r%d", measure, partitions, replicas)
				t.Run(name, func(t *testing.T) {
					runClusterDifferential(t, measure, partitions, replicas)
				})
			}
		}
	}
}

func runClusterDifferential(t *testing.T, measure string, partitions, replicas int) {
	rng := rand.New(rand.NewSource(1789))
	cut := startCluster(t, measure, partitions, replicas)
	entities := clusterEntities(rng, 40)
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cut.add(t, name, entities[name])
	}

	probes := []map[string]uint32{
		{"w1": 3, "w2": 1, "tie": 2},  // the duplicate multiset: maximal ties
		{"w0": 1, "w1": 2, "w3": 1},   // generic overlap
		{"w5": 4},                     // single element
		{"never-indexed": 7, "w2": 1}, // partially out-of-alphabet
		{"totally-unknown": 1},        // fully out-of-alphabet
		entities[names[3]],            // an indexed entity's exact multiset
	}
	entityProbes := []string{names[0], "dup0", names[17]}
	cut.compare(t, "initial", probes, entityProbes)

	// Churn: remove a third, upsert a third with fresh contents, add a
	// few new entities (including a new duplicate of the tie group).
	for i, name := range names {
		switch i % 3 {
		case 0:
			cut.remove(t, name)
		case 1:
			fresh := make(map[string]uint32)
			for j, k := 0, 1+rng.Intn(5); j < k; j++ {
				fresh[fmt.Sprintf("w%d", rng.Intn(24))] = uint32(1 + rng.Intn(4))
			}
			cut.add(t, name, fresh)
		}
	}
	cut.add(t, "late-dup", map[string]uint32{"w1": 3, "w2": 1, "tie": 2})
	cut.remove(t, "no-such-entity") // both sides: not indexed
	cut.compare(t, "churn", probes, []string{names[1], "late-dup"})

	// Kill one replica: queries must stay exact through failover. With
	// a single replica the partition would (correctly) become
	// unavailable, which TestClusterPartitionLossFailsQueries covers.
	if replicas >= 2 {
		cut.servers[0][0].Close()
		cut.compare(t, "one node killed", probes, []string{"late-dup"})
		// And again with the router's health table aware of the death.
		cut.cluster.CheckNow(context.Background())
		cut.compare(t, "one node killed, health known", probes, []string{"late-dup"})
	}
}

// TestClusterNonPositiveK: the k-taking conveniences keep Index's
// contract on a Cluster — a non-positive k asks for nothing and returns
// nil, with no error, even for an entity nobody indexed.
func TestClusterNonPositiveK(t *testing.T) {
	cut := startCluster(t, "ruzicka", 2, 1)
	for i := 0; i < 6; i++ {
		cut.add(t, fmt.Sprintf("e%d", i), map[string]uint32{"x": uint32(i + 1), "y": 2})
	}
	probe := map[string]uint32{"x": 2, "y": 1}
	for _, k := range []int{0, -1} {
		got, err := cut.cluster.QueryTopK(probe, k)
		mustMatch(t, fmt.Sprintf("topk %d", k), got, cut.oracle.QueryTopK(probe, k), err)
		gotN, err := cut.cluster.QueryKNN(probe, k)
		mustMatchNeighbors(t, fmt.Sprintf("knn %d", k), gotN, cut.oracle.QueryKNN(probe, k), err)
		for _, entity := range []string{"e1", "no-such-entity"} {
			gotN, err := cut.cluster.QueryKNNEntity(entity, k)
			wantN, werr := cut.oracle.QueryKNNEntity(entity, k)
			if werr != nil {
				t.Fatal(werr)
			}
			mustMatchNeighbors(t, fmt.Sprintf("knn entity %q %d", entity, k), gotN, wantN, err)
		}
	}
}

// TestClusterPartitionLossFailsQueries: losing the only replica of a
// partition must fail queries loudly (ErrClusterUnavailable), never
// return the surviving partitions' partial answer.
func TestClusterPartitionLossFailsQueries(t *testing.T) {
	cut := startCluster(t, "ruzicka", 2, 1)
	for i := 0; i < 8; i++ {
		cut.add(t, fmt.Sprintf("e%d", i), map[string]uint32{"x": 1, fmt.Sprintf("y%d", i): 2})
	}
	cut.servers[1][0].Close()
	_, err := cut.cluster.QueryThreshold(map[string]uint32{"x": 1}, 0)
	if !errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
		t.Fatalf("want ErrClusterUnavailable, got %v", err)
	}
	// Writes to the dead partition fail too; writes to the live one work.
	var deadName, liveName string
	for i := 0; deadName == "" || liveName == ""; i++ {
		name := fmt.Sprintf("probe%d", i)
		if vsmartjoin.PartitionOfEntity(name, 2) == 1 {
			deadName = name
		} else {
			liveName = name
		}
	}
	if err := cut.cluster.Add(deadName, map[string]uint32{"z": 1}); !errors.Is(err, vsmartjoin.ErrClusterUnavailable) {
		t.Fatalf("write to dead partition: %v", err)
	}
	if err := cut.cluster.Add(liveName, map[string]uint32{"z": 1}); err != nil {
		t.Fatalf("write to live partition: %v", err)
	}
}

// TestClusterCarvedBulkBuild: BuildClusterFiles → per-node OpenIndex →
// cluster over the opened nodes answers byte-identically to an oracle
// built from the same dataset — the bulk cold-start path for a whole
// cluster, including that carving and routing agree on ownership.
func TestClusterCarvedBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	entities := clusterEntities(rng, 30)
	d := vsmartjoin.NewDataset()
	oracle, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Measure: "jaccard"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entities))
	for name := range entities {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Add(name, entities[name])
		if err := oracle.Add(name, entities[name]); err != nil {
			t.Fatal(err)
		}
	}

	const partitions = 3
	dir := filepath.Join(t.TempDir(), "cluster")
	opts := vsmartjoin.IndexOptions{Measure: "jaccard", Dir: dir}
	cs, err := vsmartjoin.BuildClusterFiles(d, opts, partitions)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, bs := range cs.Nodes {
		total += bs.Entities
	}
	if total != int64(len(names)) {
		t.Fatalf("carve wrote %d entities, want %d", total, len(names))
	}

	var topo [][]string
	for p := 0; p < partitions; p++ {
		ix, err := vsmartjoin.OpenIndex(vsmartjoin.IndexOptions{
			Measure: "jaccard", Dir: filepath.Join(dir, vsmartjoin.NodeDirName(p)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		ts := httptest.NewServer(httpd.NewNode(ix, httpd.Options{}))
		t.Cleanup(ts.Close)
		topo = append(topo, []string{ts.URL})
	}
	c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{Nodes: topo, HealthEvery: -1, RepairEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cut := &clusterUnderTest{cluster: c, oracle: oracle}
	cut.compare(t, "carved", []map[string]uint32{
		{"w1": 3, "w2": 1, "tie": 2},
		{"w0": 1, "w4": 2},
		entities[names[5]],
	}, []string{names[0], "dup1"})

	// The carved cluster keeps accepting writes: further churn through
	// the router stays oracle-exact.
	cut.add(t, "post-carve", map[string]uint32{"w1": 2, "fresh": 1})
	cut.remove(t, names[2])
	cut.compare(t, "carved+churn", []map[string]uint32{{"w1": 3, "w2": 1, "tie": 2}}, []string{"post-carve"})
}

// TestRouterSnapshotFanOut drives the router's POST /snapshot over
// in-process nodes: over durable nodes it answers 200 and every node
// writes exactly one new generation; over a volatile node, which
// refuses with 409, the router answers 409 too, not a server failure.
func TestRouterSnapshotFanOut(t *testing.T) {
	postSnapshot := func(t *testing.T, c *vsmartjoin.Cluster) int {
		t.Helper()
		router := httptest.NewServer(httpd.NewRouter(c, httpd.Options{}))
		defer router.Close()
		resp, err := router.Client().Post(router.URL+"/snapshot", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("durable", func(t *testing.T) {
		var nodes []*vsmartjoin.Index
		var topo [][]string
		for p := 0; p < 2; p++ {
			ix, err := vsmartjoin.NewIndex(vsmartjoin.IndexOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ix.Close() })
			node := httpd.NewNode(ix, httpd.Options{})
			ts := httptest.NewServer(node)
			t.Cleanup(nodeServer{ts, node}.Close)
			nodes = append(nodes, ix)
			topo = append(topo, []string{ts.URL})
		}
		c, err := vsmartjoin.NewCluster(vsmartjoin.ClusterOptions{Nodes: topo, HealthEvery: -1, RepairEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for i := 0; i < 6; i++ {
			if err := c.Add(fmt.Sprintf("e%d", i), map[string]uint32{"x": uint32(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		before := make([]uint64, len(nodes))
		for i, ix := range nodes {
			before[i] = ix.Generation()
		}
		if code := postSnapshot(t, c); code != http.StatusOK {
			t.Fatalf("POST /snapshot over durable nodes: %d, want 200", code)
		}
		for i, ix := range nodes {
			if got := ix.Generation(); got != before[i]+1 {
				t.Errorf("node %d generation %d after /snapshot, want %d", i, got, before[i]+1)
			}
		}
	})

	t.Run("volatile", func(t *testing.T) {
		cut := startCluster(t, "ruzicka", 1, 1)
		if code := postSnapshot(t, cut.cluster); code != http.StatusConflict {
			t.Fatalf("POST /snapshot over a volatile node: %d, want 409", code)
		}
	})
}
