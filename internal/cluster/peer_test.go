package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

// peerSeeds are well-formed request and reply payloads of every
// operation, the fuzzers' starting corpus.
func peerSeeds() (requests, replies [][]byte) {
	elems := map[string]uint32{"a": 3, "b": 1}
	for _, q := range []peerRequest{
		{op: peerQuery, query: Query{Elements: elems, Threshold: 0.5}},
		{op: peerQuery, query: Query{Elements: elems, Kind: KindTopK, K: 10}},
		{op: peerQuery, query: Query{Kind: KindKNN, K: math.MaxInt}},
		{op: peerEntity, name: "ip-1"},
		{op: peerReady},
		{op: peerSnapshot},
		{op: peerApply, muts: []BulkOp{{Op: OpAdd, Entity: "e", Elements: elems}, {Op: OpRemove, Entity: "f"}}},
	} {
		var b codec.Buffer
		q.encode(&b, "rid-1")
		requests = append(requests, b.Clone())
	}
	for _, rep := range []peerReply{
		{status: 200, result: QueryResult{Matches: []Match{{"a", 1}, {"b", 0.25}}}},
		{status: 200, result: QueryResult{Neighbors: []Neighbor{{"a", 0}, {"b", 1}}}},
		{status: 200, elements: elems},
		{status: 200, ready: Readiness{Ready: true, Measure: "ruzicka", Generation: 3, Entities: 9, Mutations: 12}},
		{status: 200, applied: []bool{true, false}},
		{status: 404, msg: "not indexed"},
	} {
		var b codec.Buffer
		rep.encode(&b)
		replies = append(replies, b.Clone())
	}
	return requests, replies
}

// FuzzPeerRequest: any payload decodes to a request or to an error
// wrapping errPeerPayload — never a panic, never an allocation sized by
// a count the payload cannot back — and a decoded request survives an
// encode/decode round trip.
func FuzzPeerRequest(f *testing.F) {
	requests, _ := peerSeeds()
	for _, seed := range requests {
		f.Add(seed)
	}
	f.Add([]byte{peerApply, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a 2^32-op count
	f.Fuzz(func(t *testing.T, payload []byte) {
		q, rid, err := decodeRequest(payload)
		if err != nil {
			if !errors.Is(err, errPeerPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var b codec.Buffer
		q.encode(&b, rid)
		q2, rid2, err := decodeRequest(b.Bytes())
		if err != nil || rid2 != rid || fmt.Sprint(q2) != fmt.Sprint(q) {
			t.Fatalf("round trip: %+v %q → %+v %q (%v)", q, rid, q2, rid2, err)
		}
	})
}

// FuzzPeerReply is FuzzPeerRequest for replies.
func FuzzPeerReply(f *testing.F) {
	_, replies := peerSeeds()
	for _, seed := range replies {
		f.Add(seed)
	}
	f.Add([]byte{0xc8, 0x01, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 200, then a 2^32-match count
	f.Fuzz(func(t *testing.T, payload []byte) {
		rep, err := decodeReply(payload)
		if err != nil {
			if !errors.Is(err, errPeerPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var b codec.Buffer
		rep.encode(&b)
		rep2, err := decodeReply(b.Bytes())
		if err != nil || fmt.Sprint(rep2) != fmt.Sprint(rep) {
			t.Fatalf("round trip: %+v → %+v (%v)", rep, rep2, err)
		}
	})
}

// TestPeerCountsBoundedByPayload: every count in a payload — elements,
// ops, matches, neighbors, flags — that is larger than the bytes left is
// refused before anything is sized by it.
func TestPeerCountsBoundedByPayload(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // 2^56-1
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// op, request ID, entity name, kind, threshold, k
	query := cat([]byte{peerQuery, 0, 0, 0}, make([]byte, 8), []byte{0})
	for name, payload := range map[string][]byte{
		"query elements": cat(query, huge),
		"apply ops":      cat(query, []byte{0}, huge),
		"op elements":    cat(query, []byte{0, 1, 0, 1, 'e'}, huge),
	} {
		if _, _, err := decodeRequest(payload); !errors.Is(err, errPeerPayload) || !strings.Contains(err.Error(), "count") {
			t.Errorf("request %s: %v", name, err)
		}
	}
	ok := []byte{0xc8, 0x01, 0} // status 200, no message
	ready := []byte{0, 0, 0, 0, 0}
	for name, payload := range map[string][]byte{
		"matches":   cat(ok, huge),
		"neighbors": cat(ok, []byte{0}, huge),
		"elements":  cat(ok, []byte{0, 0}, huge),
		"flags":     cat(ok, []byte{0, 0, 0}, ready, huge),
	} {
		if _, err := decodeReply(payload); !errors.Is(err, errPeerPayload) || !strings.Contains(err.Error(), "count") {
			t.Errorf("reply %s: %v", name, err)
		}
	}
}

// TestPeerDecodeAllocationBoundedByPayload: payloads built to make the
// decoders allocate the most per byte — counts at the largest the bytes
// left allow, items at their smallest, one name repeated — cost a small
// multiple of their size. The worst is an op with one element: five
// bytes that become a BulkOp and a map of its own, as a /bulk body's ops
// do from some twenty bytes of JSON each.
func TestPeerDecodeAllocationBoundedByPayload(t *testing.T) {
	const size = 1 << 20
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	count := func(n int) []byte {
		var b codec.Buffer
		b.PutUvarint(uint64(n))
		return b.Clone()
	}
	query := cat([]byte{peerQuery, 0, 0, 0}, make([]byte, 8), []byte{0}) // op, rid, name, kind, threshold, k
	ok := []byte{0xc8, 0x01, 0}                                          // status 200, no message
	for _, c := range []struct {
		name    string
		reply   bool
		payload []byte
		bound   uint64 // allocated bytes per payload byte
	}{
		{"ops", false, cat(query, []byte{0}, count(size/minOpLen), make([]byte, size/minOpLen*minOpLen)), 16},
		{"one-element ops", false, cat(query, []byte{0}, count(size/5), bytes.Repeat([]byte{0, 0, 1, 0, 1}, size/5)), 64},
		{"one element repeated", false, cat(query, count(size/minElementLen), make([]byte, size/minElementLen*minElementLen), []byte{0}), 1},
		{"matches", true, cat(ok, count(size/minScoredLen), make([]byte, size/minScoredLen*minScoredLen), make([]byte, 8)), 4},
		{"flags", true, cat(ok, make([]byte, 8), count(size), make([]byte, size)), 2},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var err error
		if c.reply {
			_, err = decodeReply(c.payload)
		} else {
			_, _, err = decodeRequest(c.payload)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.bound*uint64(len(c.payload)) {
			t.Errorf("%s: %d payload bytes allocated %d (%.1f×, bound %d×)", c.name, len(c.payload), got, float64(got)/float64(len(c.payload)), c.bound)
		}
	}
}

// dialFake opens one upgraded peer connection to a fake node.
func dialFake(t *testing.T, url string) *peerConn {
	t.Helper()
	p, err := newPeerPool(url)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := p.dial(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.conn.Close() })
	return pc
}

// TestPeerCorruptFrameClosesOnlyItsConnection: a frame whose checksum
// fails, or whose length is over the cap, ends the node's loop on that
// connection — framing is lost — and every other connection to the same
// node keeps answering.
func TestPeerCorruptFrameClosesOnlyItsConnection(t *testing.T) {
	f := newFakeNode()
	ts := httptest.NewServer(f)
	defer ts.Close()
	defer f.stop()
	good := dialFake(t, ts.URL)

	badCRC, err := frame.Append(nil, []byte{peerReady, 0})
	if err != nil {
		t.Fatal(err)
	}
	badCRC[1] ^= 0xff                          // the first checksum byte, after the 1-byte length
	oversize := []byte{0x81, 0x80, 0x80, 0x08} // uvarint frame.MaxFrameLen+1
	for name, raw := range map[string][]byte{"bad checksum": badCRC, "oversize length": oversize} {
		bad := dialFake(t, ts.URL)
		if _, err := bad.conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		bad.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := bad.conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read %d bytes, %v; want the node to close the connection", name, n, err)
		}
		rep, err := good.exchange(context.Background(), time.Now().Add(5*time.Second), &peerRequest{op: peerReady}, "")
		if err != nil || rep.status != http.StatusOK || !rep.ready.Ready {
			t.Fatalf("after %s, the other connection: %+v %v", name, rep, err)
		}
	}
}

// TestHedgeLoserConnectionDiscarded: the attempt a hedge beat has its
// connection closed, not pooled, and the node it was talking to still
// answers the next query on a fresh one.
func TestHedgeLoserConnectionDiscarded(t *testing.T) {
	nodes, c := grid(t, 1, 2, 5*time.Millisecond)
	slow, fast := nodes[0][0], nodes[0][1]
	for _, f := range nodes[0] {
		f.set(func(f *fakeNode) { f.ents["e1"] = map[string]uint32{"x": 1} })
	}
	slow.set(func(f *fakeNode) { f.hangQuery = true })
	q := Query{Elements: map[string]uint32{"x": 1}}
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Hedges == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no query was ever hedged")
		}
		if res, err := c.Query(context.Background(), q); err != nil || len(res.Matches) != 1 {
			t.Fatalf("hedged query: %v %v", res, err)
		}
	}
	pool := c.parts[0][0].pool
	for deadline := time.Now().Add(5 * time.Second); len(pool.open) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the loser's connection is still open: %d open, %d idle", len(pool.open), len(pool.idle))
		}
	}
	slow.set(func(f *fakeNode) { f.hangQuery = false })
	fast.set(func(f *fakeNode) { f.down = true })
	if res, err := c.Query(context.Background(), q); err != nil || len(res.Matches) != 1 {
		t.Fatalf("query after the hedge, answered by the former loser: %v %v", res, err)
	}
	if got := slow.dialCount(); got != 2 {
		t.Fatalf("the former loser accepted %d connections, want 2 (the lost one, then a fresh one)", got)
	}
}

// TestNodeRestartedOnSameAddress: a node restarted under the router's
// idle connections answers the next query — the stale connection fails
// before any reply byte and the read is retried once on a fresh dial —
// and is never marked unhealthy for it.
func TestNodeRestartedOnSameAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(ln net.Listener) (*fakeNode, *httptest.Server) {
		f := newFakeNode()
		f.ents["e1"] = map[string]uint32{"x": 1}
		ts := httptest.NewUnstartedServer(f)
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		t.Cleanup(ts.Close)
		t.Cleanup(f.stop)
		return f, ts
	}
	first, ts := start(ln)
	c, err := New(Config{Partitions: [][]string{{addr}}, HedgeAfter: -1, HealthEvery: -1, RepairEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := Query{Elements: map[string]uint32{"x": 1}}
	if _, err := c.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	ts.Close()
	first.kill() // the process exit: listener and connections gone
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	second, _ := start(ln)
	if res, err := c.Query(context.Background(), q); err != nil || len(res.Matches) != 1 {
		t.Fatalf("query after the restart: %v %v", res, err)
	}
	if n := c.Stats().Nodes[0]; !n.Healthy {
		t.Fatalf("restarted node marked unhealthy: %s", n.LastError)
	}
	if got := second.dialCount(); got != 1 {
		t.Fatalf("restarted node accepted %d connections, want 1", got)
	}
}

// TestPeerDialsStayWithinPoolBound: under a steady load of two clients
// mixing reads and writes, a node is dialled at most once per
// concurrent call — connections are reused, not churned.
func TestPeerDialsStayWithinPoolBound(t *testing.T) {
	nodes, c := grid(t, 1, 1, -1)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := add(c, fmt.Sprintf("c%d-%d", client, i%7), map[string]uint32{"x": uint32(i + 1)}); err != nil {
					errs <- err
					return
				}
				if _, err := c.Query(context.Background(), Query{Elements: map[string]uint32{"x": 1}}); err != nil {
					errs <- err
					return
				}
			}
		}(client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Two clients hold at most two connections at once: within the idle
	// bound, so none is closed and redialled.
	if got := nodes[0][0].dialCount(); got > peerIdle {
		t.Fatalf("%d dials for 2 clients' 800 calls", got)
	}
}

// TestRepairDrainsBacklogLargerThanAFrame: a replica's backlog whose
// one-shot encoding is over frame.MaxFrameLen converges anyway — the
// re-drive goes out in chunks, each cleared on its own ack.
func TestRepairDrainsBacklogLargerThanAFrame(t *testing.T) {
	nodes, c := grid(t, 1, 2, -1)
	lagging := nodes[0][1]
	lagging.set(func(f *fakeNode) { f.down = true })
	big := strings.Repeat("x", 64<<10) // one shared element name, 64 KiB on the wire per op
	var all []BulkOp
	for i := 0; i < 300; i++ {
		op := BulkOp{Op: OpAdd, Entity: fmt.Sprintf("e%03d", i), Elements: map[string]uint32{big: 1}}
		all = append(all, op)
		if _, err := c.Apply(context.Background(), []BulkOp{op}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("write %d with a replica down: %v, want a quorum failure", i, err)
		}
	}
	waitPending(t, c, len(all)) // the down replica's, once the live one has acked
	lagging.set(func(f *fakeNode) { f.down = false })
	var b codec.Buffer
	(&peerRequest{op: peerApply, muts: all}).encode(&b, "")
	if b.Len() <= frame.MaxFrameLen {
		t.Fatalf("backlog encodes to %d bytes, not over the %d-byte cap", b.Len(), frame.MaxFrameLen)
	}
	c.RepairNow(context.Background())
	if got := c.PendingRepairs(); got != 0 {
		t.Fatalf("pending repairs after one pass: %d", got)
	}
	if got := len(lagging.entities()); got != len(all) {
		t.Fatalf("lagging replica holds %d entities, want %d", got, len(all))
	}
	if got := lagging.bulkCount(); got < 2 {
		t.Fatalf("backlog arrived in %d requests", got)
	}
}
