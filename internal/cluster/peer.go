package cluster

// The router↔node hop (package doc): the schema both ends share, as both
// ends of /bulk share BulkRequest, and the node's loop. client.go is the
// router's side.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

// PeerPath is the node route the router upgrades to the peer protocol.
const PeerPath = "/peer"

const peerProtocol = "vsmart-peer/1" // the Upgrade token; a schema change bumps it

// The peer operations, the first byte of a request payload.
const (
	peerQuery byte = iota + 1
	peerEntity
	peerReady
	peerApply
	peerSnapshot
)

// peerOpNames name the operations in errors, after the node endpoints
// that answer the same questions over HTTP.
var peerOpNames = [...]string{peerQuery: "/query", peerEntity: "/entity",
	peerReady: "/readyz", peerApply: "/bulk", peerSnapshot: "/snapshot"}

// StatusError is a node's refusal of one request, coded by the status
// the node's HTTP API gives the same refusal: a 4xx is the caller's
// fault and leaves the node healthy, a 5xx is the node's own.
type StatusError struct {
	Code int
	Msg  string
}

func (e StatusError) Error() string { return e.Msg }

// PeerBackend is what ServePeer answers requests with; internal/httpd
// adapts a node's index to it. A StatusError sets the reply's status;
// any other error is a 400 from Query (the request was wrong) and a 500
// from the rest.
type PeerBackend interface {
	// Admit claims an admission slot for one request, false to shed it
	// with 429; each admitted request ends with one Release. Readiness
	// probes skip admission, as /readyz does on HTTP.
	Admit() bool
	Release()
	// Serve runs answer, the rest of one decoded request, before it
	// returns: directly, or from inside whatever wraps the node (httpd
	// passes it through the HTTP server's handler, so middleware sees
	// each call). A request answer never ran for fails with a 500.
	Serve(rid string, answer func())
	Query(ctx context.Context, q Query) (QueryResult, error)
	Apply(ctx context.Context, muts []BulkOp) ([]bool, error)
	Entity(name string) (map[string]uint32, error)
	Readiness() (Readiness, error)
	Snapshot() error
}

// errPeerPayload tags every payload that does not decode.
var errPeerPayload = errors.New("cluster: malformed peer payload")

// peerRequest is one router→node call. A payload carries every field of
// its message, set or zero, in one fixed order — a few bytes of zeros
// buy one code path per direction — and a request payload also carries
// the request ID.
type peerRequest struct {
	op    byte
	query Query    // peerQuery: Elements, Kind, Threshold, K
	name  string   // peerEntity
	muts  []BulkOp // peerApply
}

func (q *peerRequest) encode(b *codec.Buffer, rid string) {
	b.PutByte(q.op)
	b.PutString(rid)
	b.PutString(q.name)
	b.PutByte(byte(q.query.Kind))
	b.PutFloat64(q.query.Threshold)
	b.PutUvarint(uint64(q.query.K))
	putElements(b, q.query.Elements)
	b.PutUvarint(uint64(len(q.muts)))
	for _, m := range q.muts {
		putOp(b, m)
	}
}

func putOp(b *codec.Buffer, m BulkOp) {
	b.PutByte(boolByte(m.Op == OpRemove))
	b.PutString(m.Entity)
	putElements(b, m.Elements)
}

// chunkOps cuts ops into runs that each encode to at most limit bytes
// (an op over limit on its own is a run of one).
func chunkOps(ops []BulkOp, limit int) (chunks [][]BulkOp) {
	var b codec.Buffer
	start := 0
	for i, m := range ops {
		if putOp(&b, m); b.Len() > limit && i > start {
			chunks = append(chunks, ops[start:i])
			start = i
			b.Reset()
			putOp(&b, m)
		}
	}
	return append(chunks, ops[start:])
}

// The fewest bytes one counted item encodes to: an op is its kind byte
// and two zero lengths, an element a name length and a count, a match or
// neighbor a name length and a float64, an applied flag one byte.
const (
	minOpLen      = 3
	minElementLen = 2
	minScoredLen  = 9
	minFlagLen    = 1
)

func decodeRequest(payload []byte) (q peerRequest, rid string, err error) {
	var r peerReader
	r.Reset(payload)
	q.op, rid, q.name = r.Byte(), r.String(), r.String()
	q.query = Query{Kind: QueryKind(r.Byte()), Threshold: r.Float64(), K: r.int(), Elements: r.elements()}
	q.muts = make([]BulkOp, r.count(minOpLen))
	for i := range q.muts {
		op := OpAdd
		if r.Byte() != 0 {
			op = OpRemove
		}
		q.muts[i] = BulkOp{Op: op, Entity: r.String(), Elements: r.elements()}
	}
	if q.op < peerQuery || q.op > peerSnapshot {
		r.fail(fmt.Sprintf("op %d", q.op))
	}
	return q, rid, r.done()
}

// peerReply is one node→router answer: a status — 200, or a refusal's
// HTTP-style code and message — and on 200 the request's result.
type peerReply struct {
	status   int
	msg      string
	result   QueryResult       // peerQuery
	elements map[string]uint32 // peerEntity
	ready    Readiness         // peerReady
	applied  []bool            // peerApply
}

func (p *peerReply) encode(b *codec.Buffer) {
	b.PutUvarint(uint64(p.status))
	b.PutString(p.msg)
	b.PutUvarint(uint64(len(p.result.Matches)))
	for _, m := range p.result.Matches {
		b.PutString(m.Entity)
		b.PutFloat64(m.Similarity)
	}
	b.PutUvarint(uint64(len(p.result.Neighbors)))
	for _, n := range p.result.Neighbors {
		b.PutString(n.Entity)
		b.PutFloat64(n.Distance)
	}
	putElements(b, p.elements)
	rd := &p.ready
	b.PutByte(boolByte(rd.Ready))
	b.PutString(rd.Measure)
	for _, v := range []uint64{rd.Generation, uint64(rd.Entities), uint64(rd.Mutations)} {
		b.PutUvarint(v)
	}
	b.PutUvarint(uint64(len(p.applied)))
	for _, a := range p.applied {
		b.PutByte(boolByte(a))
	}
}

func decodeReply(payload []byte) (p peerReply, err error) {
	var r peerReader
	r.Reset(payload)
	if p.status, p.msg = r.int(), r.String(); p.status < 100 || p.status > 999 {
		r.fail(fmt.Sprintf("status %d", p.status))
	}
	p.result.Matches = make([]Match, r.count(minScoredLen))
	for i := range p.result.Matches {
		p.result.Matches[i] = Match{Entity: r.String(), Similarity: r.Float64()}
	}
	p.result.Neighbors = make([]Neighbor, r.count(minScoredLen))
	for i := range p.result.Neighbors {
		p.result.Neighbors[i] = Neighbor{Entity: r.String(), Distance: r.Float64()}
	}
	p.elements = r.elements()
	p.ready = Readiness{Ready: r.Byte() != 0, Measure: r.String(), Generation: r.Uvarint(),
		Entities: r.int(), Mutations: int64(r.int())}
	p.applied = make([]bool, r.count(minFlagLen))
	for i := range p.applied {
		p.applied[i] = r.Byte() != 0
	}
	return p, r.done()
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func putElements(b *codec.Buffer, elements map[string]uint32) {
	b.PutUvarint(uint64(len(elements)))
	for name, c := range elements {
		b.PutString(name)
		b.PutUint32(c)
	}
}

// peerReader is a codec.Reader with the checks a payload from the wire
// needs; its first failure sticks, and done reports it.
type peerReader struct {
	codec.Reader
	err error
}

func (r *peerReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errPeerPayload, what)
	}
}

// count reads a count of items that each encode to at least minLen
// bytes and refuses one the bytes left cannot hold, so nothing is ever
// sized past a small multiple of the payload.
func (r *peerReader) count(minLen int) int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()/minLen) {
		r.fail(fmt.Sprintf("count %d exceeds what the %d bytes left can hold", n, r.Remaining()))
		return 0
	}
	return int(n)
}

func (r *peerReader) int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.fail(fmt.Sprintf("%d overflows an int", v))
		return 0
	}
	return int(v)
}

// elements reads an element map; an empty one is nil. The map grows with
// the names that arrive, not to n: a payload repeating one name would
// otherwise buy a table n wide for two bytes an entry.
func (r *peerReader) elements() map[string]uint32 {
	n := r.count(minElementLen)
	if n == 0 {
		return nil
	}
	elements := make(map[string]uint32)
	for ; n > 0; n-- {
		elements[r.String()] = r.Uint32()
	}
	return elements
}

// done is the end-of-payload check: no failure and no trailing bytes.
func (r *peerReader) done() error {
	switch {
	case r.err != nil:
		return r.err
	case r.Err() != nil:
		return fmt.Errorf("%w: %w", errPeerPayload, r.Err())
	case r.Remaining() > 0:
		return fmt.Errorf("%w: %d trailing bytes", errPeerPayload, r.Remaining())
	}
	return nil
}

// AcceptPeer is the node half of the Upgrade handshake: it checks that r
// asks for the peer protocol, takes the connection over from the HTTP
// server and answers 101 on it. On success the caller owns conn and
// hands it to ServePeer; on failure the response has been written or the
// connection closed.
func AcceptPeer(w http.ResponseWriter, r *http.Request) (net.Conn, error) {
	if r.Method != http.MethodGet || r.Header.Get("Upgrade") != peerProtocol {
		http.Error(w, "want GET with Upgrade: "+peerProtocol, http.StatusBadRequest)
		return nil, errors.New("cluster: not a peer upgrade")
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, err
	}
	// The router sends nothing before the 101, and ServePeer runs without
	// the deadlines the server may have armed for the HTTP exchange.
	if brw.Reader.Buffered() > 0 {
		err = errors.New("cluster: peer sent data before the upgrade completed")
	} else if err = conn.SetDeadline(time.Time{}); err == nil {
		_, err = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+peerProtocol+"\r\n\r\n")
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// ServePeer is the node's loop over one upgraded connection: read a
// request frame, answer it through b, write the reply frame, until the
// connection fails or closes; it then closes conn. A frame that fails
// its checksum or length cap ends the loop, as framing is lost with it;
// a well-framed payload that does not decode is answered 400. ServePeer
// sets no read deadline, so its owner can stop it between requests with
// conn.SetReadDeadline(time.Now()): the request in hand completes, and
// the next read ends the loop.
func ServePeer(conn net.Conn, b PeerBackend) {
	defer conn.Close()
	in, out := frame.NewReader(conn), frame.NewWriter(conn)
	c := &peerCall{b: b}
	c.answer = c.run
	var buf codec.Buffer
	for {
		payload, err := in.Next()
		if err != nil {
			return
		}
		rep := c.serve(payload)
		buf.Reset()
		if rep.encode(&buf); buf.Len() > frame.MaxFrameLen {
			rep = peerReply{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("reply of %d bytes exceeds the %d-byte frame cap", buf.Len(), frame.MaxFrameLen)}
			buf.Reset()
			rep.encode(&buf)
		}
		if out.WriteFrame(buf.Bytes()) != nil || out.Flush() != nil {
			return
		}
	}
}

// peerCall is the request a connection's loop has in hand. Its answer,
// bound once per connection, is what PeerBackend.Serve gets, so serving
// a request allocates no closure.
type peerCall struct {
	b      PeerBackend
	req    peerRequest
	rid    string
	rep    peerReply
	answer func()
}

// serve admits one request under the backend's limiter — before decoding
// it, as HTTP admits a request before reading its body — then decodes it
// and has the backend serve it.
func (c *peerCall) serve(payload []byte) peerReply {
	if len(payload) == 0 || payload[0] != peerReady {
		if !c.b.Admit() {
			return peerReply{status: http.StatusTooManyRequests, msg: "server at capacity"}
		}
		defer c.b.Release()
	}
	var err error
	if c.req, c.rid, err = decodeRequest(payload); err != nil {
		return peerReply{status: http.StatusBadRequest, msg: err.Error()}
	}
	c.rep = peerReply{status: http.StatusInternalServerError, msg: "the peer request never reached the node"}
	c.b.Serve(c.rid, c.answer)
	return c.rep
}

func (c *peerCall) run() { c.rep = respond(WithRequestID(context.Background(), c.rid), c.b, c.req) }

// respond answers one decoded request from the backend.
func respond(ctx context.Context, b PeerBackend, req peerRequest) (rep peerReply) {
	var err error
	status := http.StatusInternalServerError
	switch req.op {
	case peerQuery:
		status = http.StatusBadRequest
		rep.result, err = b.Query(ctx, req.query)
	case peerEntity:
		rep.elements, err = b.Entity(req.name)
	case peerReady:
		rep.ready, err = b.Readiness()
	case peerApply:
		// Every op is checked before anything is applied, as on /bulk.
		if err = CheckMutations(req.muts); err != nil {
			status = http.StatusBadRequest
		} else {
			rep.applied, err = b.Apply(ctx, req.muts)
		}
	case peerSnapshot:
		err = b.Snapshot()
	}
	if err != nil {
		var se StatusError
		if errors.As(err, &se) {
			status = se.Code
		}
		return peerReply{status: status, msg: err.Error()}
	}
	rep.status = http.StatusOK
	return rep
}
