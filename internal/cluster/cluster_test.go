package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeNode is a scriptable stand-in for a vsmartjoind node: a
// PeerBackend storing entities in a map, served over the real peer hop
// (the HTTP upgrade and ServePeer), that can be told to fail writes,
// fail everything, or hang queries — the partial-failure scenarios the
// real differential (root package) never produces on demand. Queries
// answer every stored entity with similarity 1, which is enough
// structure for the merge to be checked.
type fakeNode struct {
	mu         sync.Mutex
	ents       map[string]map[string]uint32
	mutations  int64
	failWrites bool
	down       bool
	hangQuery  bool
	hold       chan struct{} // non-nil: writes wait for it to close (a straggler)
	writes     int           // Apply calls begun
	bulks      int
	dials      int                   // peer connections accepted
	conns      map[net.Conn]struct{} // peer connections being served
	quit       chan struct{}         // closed at test end: releases hung queries
}

func newFakeNode() *fakeNode {
	return &fakeNode{ents: make(map[string]map[string]uint32), conns: make(map[net.Conn]struct{}), quit: make(chan struct{})}
}

func (f *fakeNode) set(fn func(*fakeNode)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeNode) bulkCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bulks
}

func (f *fakeNode) dialCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

func (f *fakeNode) entities() map[string]map[string]uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]map[string]uint32, len(f.ents))
	for k, v := range f.ents {
		out[k] = v
	}
	return out
}

// ServeHTTP is the node's listener: it upgrades GET /peer and serves the
// connection with ServePeer.
func (f *fakeNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn, err := AcceptPeer(w, r)
	if err != nil {
		return
	}
	f.mu.Lock()
	f.dials++
	f.conns[conn] = struct{}{}
	f.mu.Unlock()
	go func() {
		ServePeer(conn, f)
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
}

// kill closes every peer connection the node is serving, as a process
// exit would.
func (f *fakeNode) kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for conn := range f.conns {
		conn.Close()
	}
}

// stop releases hung queries; tests register it as a cleanup.
func (f *fakeNode) stop() { close(f.quit) }

var (
	errDown    = StatusError{Code: http.StatusInternalServerError, Msg: "node down"}
	errRefused = StatusError{Code: http.StatusInternalServerError, Msg: "write refused"}
)

func (f *fakeNode) isDown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

func (f *fakeNode) Admit() bool                   { return true }
func (f *fakeNode) Release()                      {}
func (f *fakeNode) Serve(_ string, answer func()) { answer() }

func (f *fakeNode) Query(ctx context.Context, q Query) (QueryResult, error) {
	f.mu.Lock()
	down, hang := f.down, f.hangQuery
	f.mu.Unlock()
	switch {
	case down:
		return QueryResult{}, errDown
	case hang:
		<-f.quit // the node died mid-query: never answers
		return QueryResult{}, errDown
	}
	f.mu.Lock()
	var ms []Match
	for name := range f.ents {
		ms = append(ms, Match{Entity: name, Similarity: 1})
	}
	f.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Entity < ms[j].Entity })
	return QueryResult{Matches: ms}, nil
}

func (f *fakeNode) Apply(ctx context.Context, muts []BulkOp) ([]bool, error) {
	f.mu.Lock()
	down, failWrites, hold := f.down, f.failWrites, f.hold
	f.writes++
	f.mu.Unlock()
	if down {
		return nil, errDown
	}
	if hold != nil {
		<-hold
	}
	if failWrites {
		return nil, errRefused
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	had := make([]bool, len(muts))
	for i, op := range muts {
		_, had[i] = f.ents[op.Entity]
		if op.Op == OpAdd {
			f.ents[op.Entity] = op.Elements
		} else {
			delete(f.ents, op.Entity)
		}
		f.mutations++
	}
	f.bulks++
	return had, nil
}

func (f *fakeNode) Entity(name string) (map[string]uint32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, errDown
	}
	elems, ok := f.ents[name]
	if !ok {
		return nil, StatusError{Code: http.StatusNotFound, Msg: "not indexed"}
	}
	return elems, nil
}

func (f *fakeNode) Readiness() (Readiness, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return Readiness{}, errDown
	}
	return Readiness{Ready: true, Measure: "ruzicka", Generation: 1,
		Entities: len(f.ents), Mutations: f.mutations}, nil
}

func (f *fakeNode) Snapshot() error {
	if f.isDown() {
		return errDown
	}
	return nil
}

// grid spins up P×R fake nodes and a cluster over them with the
// background loops disabled (tests drive CheckNow/RepairNow
// explicitly) and hedging off unless asked for.
func grid(t *testing.T, p, r int, hedge time.Duration) ([][]*fakeNode, *Cluster) {
	t.Helper()
	nodes := make([][]*fakeNode, p)
	topo := make([][]string, p)
	for pi := 0; pi < p; pi++ {
		for ri := 0; ri < r; ri++ {
			f := newFakeNode()
			ts := httptest.NewServer(f)
			t.Cleanup(ts.Close)
			t.Cleanup(f.stop)
			nodes[pi] = append(nodes[pi], f)
			topo[pi] = append(topo[pi], ts.URL)
		}
	}
	c, err := New(Config{
		Partitions:  topo,
		Timeout:     5 * time.Second,
		HedgeAfter:  hedge,
		HealthEvery: -1,
		RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return nodes, c
}

// add and remove are the one-op Apply calls the root package's
// Cluster.Add and Cluster.Remove make.
func add(c *Cluster, entity string, elements map[string]uint32) error {
	_, err := c.Apply(context.Background(), []BulkOp{{Op: OpAdd, Entity: entity, Elements: elements}})
	return err
}

func remove(c *Cluster, entity string) (bool, error) {
	had, err := c.Apply(context.Background(), []BulkOp{{Op: OpRemove, Entity: entity}})
	return len(had) > 0 && had[0], err
}

// waitPending polls until the cluster's owed-op count settles at want:
// quorumWrite returns at quorum, and a straggler's ops stay owed until
// its ack arrives, asynchronously by design.
func waitPending(t *testing.T, c *Cluster, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := c.PendingRepairs()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending repairs = %d, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPartitionOfDeterministicAndSpread(t *testing.T) {
	hits := make([]int, 8)
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("entity-%d", i)
		p := PartitionOf(name, 8)
		if p2 := PartitionOf(name, 8); p2 != p {
			t.Fatalf("PartitionOf(%q) unstable: %d then %d", name, p, p2)
		}
		hits[p]++
	}
	for p, n := range hits {
		// A fair hash puts ~512 of 4096 names in each of 8 partitions;
		// anything outside [256, 768] would be a broken mix.
		if n < 256 || n > 768 {
			t.Fatalf("partition %d got %d/4096 names: %v", p, n, hits)
		}
	}
	if PartitionOf("anything", 1) != 0 || PartitionOf("anything", 0) != 0 {
		t.Fatal("degenerate partition counts must route to 0")
	}
}

func TestNormalizeAddr(t *testing.T) {
	for in, want := range map[string]string{
		" host:8321 ":       "http://host:8321",
		"http://host:8321/": "http://host:8321",
		"https://host":      "https://host",
		"10.0.0.7:99":       "http://10.0.0.7:99",
		"  ":                "",
	} {
		if got := normalizeAddr(in); got != want {
			t.Fatalf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNewRejectsBadTopologies(t *testing.T) {
	for _, bad := range [][][]string{
		{},
		{{}},
		{{"a:1"}, {}},
		{{"a:1", "a:1"}},
		{{"a:1"}, {"a:1"}},
		{{"a:1", "   "}},
		// The hop dials host:port and upgrades /peer there: anything else
		// in a node URL would name a node it cannot reach.
		{{"https://a:1"}},
		{{"http://gw/n1"}, {"http://gw/n2"}},
		{{"a:1?shard=2"}},
		{{"a:1#x"}},
		{{"http://user@a:1"}},
		{{"http://a:80", "a"}}, // one dial address, two spellings
	} {
		if _, err := New(Config{Partitions: bad, HealthEvery: -1, RepairEvery: -1}); err == nil {
			t.Fatalf("topology %v should be rejected", bad)
		}
	}
}

// TestWriteReplicatesAndQuorum: a healthy partition applies the write
// on every replica; with a minority failing the write still succeeds
// and the failed replica owes the op.
func TestWriteReplicatesAndQuorum(t *testing.T) {
	nodes, c := grid(t, 2, 3, -1)
	if err := add(c, "e1", map[string]uint32{"x": 2}); err != nil {
		t.Fatal(err)
	}
	p := PartitionOf("e1", 2)
	// The write returns at quorum; the last replica's apply may still be
	// in flight, so poll for full replication.
	deadline := time.Now().Add(5 * time.Second)
	for ri := 0; ri < len(nodes[p]); {
		if ents := nodes[p][ri].entities(); ents["e1"] != nil {
			ri++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d missed the write: %v", ri, nodes[p][ri].entities())
		}
		time.Sleep(time.Millisecond)
	}
	for ri, f := range nodes[1-p] {
		if ents := f.entities(); len(ents) != 0 {
			t.Fatalf("non-owner partition replica %d got the write: %v", ri, ents)
		}
	}

	// One of three replicas failing: quorum met, its op owed.
	nodes[p][1].set(func(f *fakeNode) { f.failWrites = true })
	if err := add(c, "e2", map[string]uint32{"y": 1}); err != nil {
		t.Fatalf("write with 2/3 acks should meet quorum: %v", err)
	}
	waitPending(t, c, 1)

	// Two of three failing: quorum missed, the error says so.
	nodes[p][2].set(func(f *fakeNode) { f.failWrites = true })
	err := add(c, "e3", map[string]uint32{"z": 1})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want quorum failure wrapping ErrUnavailable, got %v", err)
	}
	if c.Stats().WriteFails != 1 {
		t.Fatalf("write-fail counter: %+v", c.Stats())
	}
}

// TestRepairConvergesLaggingReplica is the anti-entropy cycle: writes
// miss a down replica (owed), the replica comes back, RepairNow
// re-drives them as one /bulk batch, and the replica converges — with
// the mutation counters in Stats reflecting it after a health pass.
func TestRepairConvergesLaggingReplica(t *testing.T) {
	nodes, c := grid(t, 1, 2, -1)
	lagging := nodes[0][1]
	lagging.set(func(f *fakeNode) { f.down = true })

	// Majority of 2 is 2: with one replica down every write errors, but
	// the live replica applied it and the dead one owes a repair.
	if err := add(c, "e1", map[string]uint32{"x": 1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want quorum failure, got %v", err)
	}
	if err := add(c, "e2", map[string]uint32{"y": 1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want quorum failure, got %v", err)
	}
	if _, err := remove(c, "e2"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want quorum failure, got %v", err)
	}
	waitPending(t, c, 2) // the latest op per entity, lagging replica only

	// Still down: repair must not clear what is owed.
	c.RepairNow(context.Background())
	waitPending(t, c, 2)

	lagging.set(func(f *fakeNode) { f.down = false })
	c.RepairNow(context.Background())
	waitPending(t, c, 0)
	if got := lagging.bulkCount(); got != 1 {
		t.Fatalf("repair should arrive as one /bulk batch, got %d", got)
	}
	want := nodes[0][0].entities()
	got := lagging.entities()
	if len(got) != len(want) || got["e1"] == nil || got["e2"] != nil {
		t.Fatalf("lagging replica did not converge: got %v want %v", got, want)
	}

	c.CheckNow(context.Background())
	st := c.Stats()
	if st.Repairs != 2 {
		t.Fatalf("repairs counter = %d, want 2", st.Repairs)
	}
	for _, n := range st.Nodes {
		if n.Entities != 1 {
			t.Fatalf("node %s entities = %d after convergence: %+v", n.Addr, n.Entities, st.Nodes)
		}
	}
}

// TestRepairNeverResurrectsStaleWrites: a newer successful write to
// the same entity must replace the older owed one, or repair would
// roll the entity back.
func TestRepairNeverResurrectsStaleWrites(t *testing.T) {
	nodes, c := grid(t, 1, 3, -1)
	lagging := nodes[0][2]
	lagging.set(func(f *fakeNode) { f.failWrites = true })
	if err := add(c, "e", map[string]uint32{"old": 1}); err != nil {
		t.Fatal(err) // 2/3 acks
	}
	waitPending(t, c, 1)
	lagging.set(func(f *fakeNode) { f.failWrites = false })
	// The newer upsert reaches all three replicas and must erase the
	// owed stale one.
	if err := add(c, "e", map[string]uint32{"new": 2}); err != nil {
		t.Fatal(err)
	}
	waitPending(t, c, 0)
	c.RepairNow(context.Background())
	if got := lagging.entities()["e"]; got["new"] != 2 || got["old"] != 0 {
		t.Fatalf("entity rolled back: %v", got)
	}
}

// TestWritesToOneEntityReachANodeInOrder: a replica still holding an
// older write to an entity is sent the newer one only once it has
// answered the older — sent at once, on another connection, the newer
// would be applied first and the older would then roll the replica back
// — while a write to another entity is not held behind it.
func TestWritesToOneEntityReachANodeInOrder(t *testing.T) {
	nodes, c := grid(t, 1, 3, -1)
	slow := nodes[0][2]
	hold := make(chan struct{})
	slow.set(func(f *fakeNode) { f.hold = hold })
	if err := add(c, "e", map[string]uint32{"old": 1}); err != nil {
		t.Fatal(err) // the other two ack
	}
	begun := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			var n int
			slow.set(func(f *fakeNode) { n = f.writes })
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("slow replica began %d writes, want %d", n, want)
			}
		}
	}
	begun(1) // the old write, parked
	slow.set(func(f *fakeNode) { f.hold = nil })
	if err := add(c, "e", map[string]uint32{"new": 2}); err != nil {
		t.Fatal(err)
	}
	if err := add(c, "f", map[string]uint32{"x": 1}); err != nil {
		t.Fatal(err)
	}
	begun(2) // the write to f; the newer write to e waits
	for deadline := time.Now().Add(5 * time.Second); slow.entities()["f"] == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the write to another entity was held behind the parked one")
		}
	}
	if got := slow.entities()["e"]; got != nil {
		t.Fatalf("slow replica applied %v while the older write was parked", got)
	}
	close(hold)
	waitPending(t, c, 0)
	if got := slow.entities()["e"]; got["new"] != 2 {
		t.Fatalf("slow replica ended at %v, want the newer write", got)
	}
}

// TestReplicasAgreeUnderConcurrentWriters: writers racing on a few
// shared entities through one router leave every replica in the same
// state, since each replica takes the writes to an entity in the order
// the router issued them, not the order their goroutines happened to
// run. In the second leg anti-entropy loops beside the writers while
// one replica keeps toggling refusal, and one final pass after it heals
// leaves nothing owed.
func TestReplicasAgreeUnderConcurrentWriters(t *testing.T) {
	for _, flapping := range []bool{false, true} {
		t.Run(fmt.Sprintf("flapping=%v", flapping), func(t *testing.T) {
			nodes, c := grid(t, 1, 3, -1)
			flapper := nodes[0][2]
			stop := make(chan struct{})
			var repairer sync.WaitGroup
			if flapping {
				repairer.Add(1)
				go func() {
					defer repairer.Done()
					for on := true; ; on = !on {
						select {
						case <-stop:
							flapper.set(func(f *fakeNode) { f.failWrites = false })
							return
						default:
						}
						flapper.set(func(f *fakeNode) { f.failWrites = on })
						c.RepairNow(context.Background())
						time.Sleep(100 * time.Microsecond)
					}
				}()
			}
			var writers sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				writers.Add(1)
				go func(g int) {
					defer writers.Done()
					for i := 0; i < 40; i++ {
						op := BulkOp{Op: OpAdd, Entity: fmt.Sprintf("e%d", (g+i)%3), Elements: map[string]uint32{"x": uint32(g*40 + i + 1)}}
						if i%7 == 6 {
							op = BulkOp{Op: OpRemove, Entity: op.Entity}
						}
						if _, err := c.Apply(context.Background(), []BulkOp{op}); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			writers.Wait()
			close(stop)
			repairer.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if flapping {
				c.RepairNow(context.Background())
				if got := c.PendingRepairs(); got != 0 {
					t.Fatalf("%d ops still owed after a pass over healed replicas", got)
				}
			}
			waitPending(t, c, 0)
			want := nodes[0][0].entities()
			for ri, f := range nodes[0][1:] {
				if got := f.entities(); !reflect.DeepEqual(got, want) {
					t.Fatalf("replica %d ended at %v, replica 0 at %v", ri+1, got, want)
				}
			}
		})
	}
}

// TestNodeDownAtStartup: a replica that was never up must not stop
// queries — the router fails over to the live replica and the answer
// is the full partition answer.
func TestNodeDownAtStartup(t *testing.T) {
	f := newFakeNode()
	live := httptest.NewServer(f)
	defer live.Close()
	defer f.stop()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing ever listens here again

	c, err := New(Config{
		Partitions:  [][]string{{deadURL, live.URL}},
		Timeout:     5 * time.Second,
		HedgeAfter:  -1,
		HealthEvery: -1,
		RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.set(func(f *fakeNode) { f.ents["e1"] = map[string]uint32{"x": 1} })

	// Depending on round-robin rotation the dead node may be tried
	// first; both orders must answer exactly.
	for i := 0; i < 4; i++ {
		res, err := c.Query(context.Background(), Query{Elements: map[string]uint32{"x": 1}})
		ms := res.Matches
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(ms) != 1 || ms[0].Entity != "e1" {
			t.Fatalf("query %d: %v", i, ms)
		}
	}
	c.CheckNow(context.Background())
	var deadSeen bool
	for _, n := range c.Stats().Nodes {
		if n.Addr == deadURL {
			deadSeen = true
			if n.Healthy {
				t.Fatal("dead node still marked healthy after CheckNow")
			}
		}
	}
	if !deadSeen {
		t.Fatal("dead node missing from stats")
	}
	if q, w := c.Ready(); !q || w {
		t.Fatalf("Ready() = %v, %v; want queries ready, writes not (majority of 2 is 2)", q, w)
	}
}

// TestHedgeWinsWhenNodeDiesMidQuery: the preferred replica accepts the
// query and never answers; the hedge fires on the other replica and
// its (exact) answer wins well before the per-node timeout.
func TestHedgeWinsWhenNodeDiesMidQuery(t *testing.T) {
	nodes, c := grid(t, 1, 2, 5*time.Millisecond)
	for _, f := range nodes[0] {
		f.set(func(f *fakeNode) { f.ents["e1"] = map[string]uint32{"x": 1} })
	}
	// Whichever replica the rotation prefers, hang it; the other answers.
	hung := 0
	nodes[0][hung].set(func(f *fakeNode) { f.hangQuery = true })
	nodes[0][1].set(func(f *fakeNode) { f.hangQuery = false })

	start := time.Now()
	deadline := time.After(2 * time.Second)
	hedgedOnce := false
	for !hedgedOnce {
		select {
		case <-deadline:
			t.Fatal("no query was ever hedged")
		default:
		}
		res, err := c.Query(context.Background(), Query{Elements: map[string]uint32{"x": 1}})
		ms := res.Matches
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].Entity != "e1" {
			t.Fatalf("hedged answer wrong: %v", ms)
		}
		hedgedOnce = c.Stats().Hedges > 0
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged queries took %v — hedging is not working", elapsed)
	}
}

// TestAllReplicasDownFailsQuery: with every replica of a partition
// dead the query must error (never a silent partial answer), tagged
// ErrUnavailable.
func TestAllReplicasDownFailsQuery(t *testing.T) {
	nodes, c := grid(t, 2, 1, -1)
	nodes[1][0].set(func(f *fakeNode) { f.down = true })
	_, err := c.Query(context.Background(), Query{Elements: map[string]uint32{"x": 1}})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if q, _ := c.Ready(); q {
		t.Fatal("cluster with a dead partition reports query-ready")
	}
}

// TestQueryEntityCrossPartition: the owner partition serves the
// multiset, every partition answers, the entity itself is excluded.
func TestQueryEntityCrossPartition(t *testing.T) {
	nodes, c := grid(t, 3, 1, -1)
	if err := add(c, "probe", map[string]uint32{"x": 1}); err != nil {
		t.Fatal(err)
	}
	// Plant one twin entity per partition, bypassing routing so every
	// partition has something to answer with.
	for pi := range nodes {
		name := fmt.Sprintf("twin-%d", pi)
		nodes[pi][0].set(func(f *fakeNode) { f.ents[name] = map[string]uint32{"x": 1} })
	}
	res, err := c.Query(context.Background(), Query{Entity: "probe"})
	ms := res.Matches
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("want the 3 twins, got %v", ms)
	}
	for i, m := range ms {
		if want := fmt.Sprintf("twin-%d", i); m.Entity != want {
			t.Fatalf("merge order wrong at %d: %v", i, ms)
		}
	}
	if _, err := c.Query(context.Background(), Query{Entity: "never-indexed"}); err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("unknown entity should be a caller error, got %v", err)
	}
}

// TestQuorumWriteFailureModes runs every shape of write — a lone add, a
// lone remove, a lone remove of an absent name, and a 5-op mixed batch
// that travels as /bulk — through the one quorum loop on a 1×3 grid
// with replicas refusing writes, down, or straggling, and checks the
// acks the caller is told about, the returned flags and error, the
// ops owed before and after RepairNow, and the faulty replica's end
// state. One faulty replica of three still meets quorum; two do not.
func TestQuorumWriteFailureModes(t *testing.T) {
	x := func(n uint32) map[string]uint32 { return map[string]uint32{"x": n} }
	writes := []struct {
		name     string
		muts     []BulkOp
		flags    []bool // at quorum
		entities int    // distinct entities, each one repair op on a replica that missed the write
	}{
		{"add", []BulkOp{{Op: OpAdd, Entity: "a", Elements: x(1)}}, []bool{true}, 1},
		{"remove", []BulkOp{{Op: OpRemove, Entity: "seed"}}, []bool{true}, 1},
		{"remove absent", []BulkOp{{Op: OpRemove, Entity: "ghost"}}, []bool{false}, 1},
		{"5-op apply", []BulkOp{
			{Op: OpAdd, Entity: "a", Elements: x(1)},
			{Op: OpAdd, Entity: "b", Elements: x(2)},
			{Op: OpRemove, Entity: "seed"},
			{Op: OpAdd, Entity: "a", Elements: x(3)},
			{Op: OpRemove, Entity: "ghost"},
		}, []bool{true, true, true, true, true}, 4},
	}
	faults := []struct {
		name   string
		faulty int // replicas 3-faulty .. 2 carry the fault
		set    func(f *fakeNode, on bool)
	}{
		{"one refuses writes", 1, func(f *fakeNode, on bool) { f.failWrites = on }},
		{"one down", 1, func(f *fakeNode, on bool) { f.down = on }},
		{"two refuse writes", 2, func(f *fakeNode, on bool) { f.failWrites = on }},
		{"one straggles", 1, nil},
	}
	for _, wr := range writes {
		for _, fault := range faults {
			t.Run(wr.name+"/"+fault.name, func(t *testing.T) {
				nodes, c := grid(t, 1, 3, -1)
				replicas := nodes[0]
				for _, f := range replicas {
					f.set(func(f *fakeNode) { f.ents["seed"] = x(9) })
				}
				bad := replicas[3-fault.faulty:]
				hold := make(chan struct{})
				for _, f := range bad {
					f.set(func(f *fakeNode) {
						if fault.set == nil {
							f.hold = hold
						} else {
							fault.set(f, true)
						}
					})
				}

				flags, err := c.Apply(context.Background(), wr.muts)
				if fault.faulty == 1 {
					if err != nil || !reflect.DeepEqual(flags, wr.flags) {
						t.Fatalf("quorum met: flags %v err %v, want %v and no error", flags, err, wr.flags)
					}
				} else {
					// The loop stops at the second refusal, before or after the
					// one healthy ack arrives.
					if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "/3 acks (quorum 2)") {
						t.Fatalf("quorum lost: err %v, want ErrUnavailable naming the acks", err)
					}
					// A flag beside an error means nothing: short of quorum every
					// one is false, whatever the one healthy ack saw.
					for _, flag := range flags {
						if flag {
							t.Fatalf("quorum lost: flags %v", flags)
						}
					}
					if got := c.Stats().WriteFails; got != 1 {
						t.Fatalf("write-fail counter = %d, want 1", got)
					}
				}
				// Every replica that did not ack owes one op per entity — a
				// straggler until its ack arrives.
				waitPending(t, c, fault.faulty*wr.entities)
				if fault.set == nil {
					close(hold)
				} else {
					c.RepairNow(context.Background()) // the fault persists: nothing clears
					waitPending(t, c, fault.faulty*wr.entities)
					for _, f := range bad {
						f.set(func(f *fakeNode) { fault.set(f, false) })
					}
					c.RepairNow(context.Background())
				}
				waitPending(t, c, 0)
				want := replicas[0].entities()
				for i, f := range bad {
					if got := f.entities(); !reflect.DeepEqual(got, want) {
						t.Fatalf("faulty replica %d ended at %v, the healthy one at %v", i, got, want)
					}
				}
				if _, ok := want["seed"]; ok != (wr.name == "add" || wr.name == "remove absent") {
					t.Fatalf("healthy replica state %v", want)
				}
			})
		}
	}

	// Two replicas, quorum 2, one refusing: a lone remove misses quorum, and
	// what it reports must not depend on whether the refusal reached the
	// router before the healthy replica's "removed: true" or after it.
	for _, refusalFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("remove/quorum lost, refusal first=%v", refusalFirst), func(t *testing.T) {
			nodes, c := grid(t, 1, 2, -1)
			healthy, refusing := nodes[0][0], nodes[0][1]
			hold := make(chan struct{})
			healthy.set(func(f *fakeNode) { f.ents["seed"] = x(9) })
			refusing.set(func(f *fakeNode) { f.failWrites = true })
			late := refusing
			if refusalFirst {
				late = healthy
			}
			late.set(func(f *fakeNode) { f.hold = hold })
			if !refusalFirst {
				// Release the refusal only once the healthy replica has acked.
				go func() {
					for len(healthy.entities()) > 0 {
						time.Sleep(time.Millisecond)
					}
					close(hold)
				}()
			}
			flags, err := c.Apply(context.Background(), []BulkOp{{Op: OpRemove, Entity: "seed"}})
			if refusalFirst {
				close(hold)
			}
			if !errors.Is(err, ErrUnavailable) || len(flags) != 1 || flags[0] {
				t.Fatalf("flags %v err %v, want [false] and ErrUnavailable", flags, err)
			}
		})
	}
}
