package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

// NewHTTPClient builds the bounded client every caller of the daemons'
// HTTP endpoints should use instead of http.DefaultClient: an overall
// per-request timeout and a connection pool capped per host, so a burst
// of requests reuses warm connections instead of opening one per request
// and a stuck daemon cannot pin goroutines forever. peers sizes the idle
// pool (how many distinct daemons the client talks to).
func NewHTTPClient(timeout time.Duration, peers int) *http.Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if peers < 1 {
		peers = 1
	}
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:          peerIdle * peers,
			MaxIdleConnsPerHost:   peerIdle,
			MaxConnsPerHost:       peerOpen,
			IdleConnTimeout:       90 * time.Second,
			ResponseHeaderTimeout: timeout,
		},
	}
}

// The per-host bounds, the router's and NewHTTPClient's: connections
// kept idle for reuse, and open at once.
const (
	peerIdle = 4
	peerOpen = 64
)

// peerPool is one node's pool of upgraded connections: a token in open
// per open connection, which is in idle or in the hands of one call.
type peerPool struct {
	host   string // host:port
	idle   chan *peerConn
	open   chan struct{}
	closed atomic.Bool
}

// newPeerPool parses a node's base URL: vsmartjoind serves plain HTTP,
// and the hop upgrades the root's /peer, so a path, query or fragment
// would name nothing the router could reach.
func newPeerPool(addr string) (*peerPool, error) {
	u, err := url.Parse(addr)
	if err != nil || u.Scheme != "http" || u.Hostname() == "" || u.User != nil ||
		u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("%q is not an http://host[:port] URL", addr)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	return &peerPool{host: host, idle: make(chan *peerConn, peerIdle), open: make(chan struct{}, peerOpen)}, nil
}

// peerConn is one upgraded connection. A request goes out as one write
// of bytes framed in advance (frameBuf), so the connection needs no write
// buffer of its own.
type peerConn struct {
	conn   net.Conn
	rx     countingReader // the bytes received, to tell whether a reply began
	br     *bufio.Reader  // in's buffer, where a reply's first byte is awaited
	in     *frame.Reader
	broken bool // a failed or interrupted call left it in an unknown state
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// frameBuf is one request encoded and framed once, ready to be written
// to any number of connections.
type frameBuf struct {
	payload codec.Buffer
	framed  []byte
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// encode frames req, carrying request ID rid; a request over the frame
// cap is the caller's fault, refused as the node would refuse it.
func (b *frameBuf) encode(req *peerRequest, rid string) error {
	b.payload.Reset()
	req.encode(&b.payload, rid)
	framed, err := frame.Append(b.framed[:0], b.payload.Bytes())
	if err != nil {
		return StatusError{Code: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("request of %d bytes exceeds the %d-byte frame cap", b.payload.Len(), frame.MaxFrameLen)}
	}
	b.framed = framed
	return nil
}

// call is the one router→node exchange outside a query's scatter: req on
// a pooled connection to n, its outcome recorded in n's health.
func (c *Cluster) call(ctx context.Context, n *node, req *peerRequest) (peerReply, error) {
	b := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(b)
	var rep peerReply
	err := b.encode(req, RequestID(ctx))
	if err == nil {
		// A write is not retried: it stays owed in the node's ledger for repair.
		retry := req.op != peerApply && req.op != peerSnapshot
		rep, err = n.pool.roundTrip(ctx, c.deadline(ctx, time.Now()), b.framed, retry)
	}
	return rep, c.settle(ctx, n, req.op, rep, err)
}

// deadline is a call's one deadline: timeout from now, or ctx's if that
// is earlier.
func (c *Cluster) deadline(ctx context.Context, now time.Time) time.Time {
	deadline := now.Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// errTimeout is the cause of every context deadline the router sets
// itself: a call it ends is the node's failure, unlike one the caller's
// context ends.
var errTimeout = errors.New("node timeout")

// withTimeout derives from ctx a context that ends timeout from now with
// errTimeout as its cause.
func (c *Cluster) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return withDeadline(ctx, time.Now().Add(c.timeout))
}

// withDeadline derives from ctx a context that ends at deadline with
// errTimeout as its cause, unless ctx ends first or at the same instant:
// then ctx's own end and cause stand.
func withDeadline(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if d, ok := ctx.Deadline(); ok && !d.After(deadline) {
		return context.WithCancel(ctx)
	}
	return context.WithDeadlineCause(ctx, deadline, errTimeout)
}

// ended reports whether ctx, a call's context, ended for a reason other
// than a deadline the router set: the caller cancelled or ran out of
// time, or a query's replica race reeled the call in. A connection
// deadline taken from ctx's can fire before ctx's own timer does, so a
// ctx past its deadline is waited out and its cause read.
func ended(ctx context.Context) bool {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		<-ctx.Done()
	}
	return ctx.Err() != nil && !errors.Is(context.Cause(ctx), errTimeout)
}

// settle turns a call's outcome, under ctx, into its error and records
// it in n's health. A transport failure or a 5xx refusal marks the node
// unhealthy; a 4xx is the caller's fault and records a healthy contact.
// A failure after ctx ended (see ended) says nothing of the node and
// leaves its health alone.
func (c *Cluster) settle(ctx context.Context, n *node, op byte, rep peerReply, err error) error {
	if err == nil && rep.status != http.StatusOK {
		err = StatusError{Code: rep.status, Msg: fmt.Sprintf("%d %s (%s)", rep.status, http.StatusText(rep.status), rep.msg)}
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w", n.addr, peerOpNames[op], err)
	}
	switch se := (StatusError{}); {
	case errors.As(err, &se) && se.Code/100 == 4:
		n.markHealthy(nil)
	case err == nil || !ended(ctx):
		n.markHealthy(err)
	}
	return err
}

// roundTrip runs framed on a connection of the pool under ctx and
// deadline. A call that fails on a reused connection before any reply
// byte arrived (the node restarted under it) is retried once on a fresh
// dial if retry allows it.
func (p *peerPool) roundTrip(ctx context.Context, deadline time.Time, framed []byte, retry bool) (peerReply, error) {
	rep, again, err := p.try(ctx, deadline, framed, false)
	if again && retry {
		rep, _, err = p.try(ctx, deadline, framed, true)
	}
	return rep, err
}

// try runs framed once, on an idle connection unless fresh, and reports
// whether its failure may be retried on a fresh dial (see release).
func (p *peerPool) try(ctx context.Context, deadline time.Time, framed []byte, fresh bool) (peerReply, bool, error) {
	pc, reused, err := p.get(ctx, deadline, fresh)
	if err != nil {
		return peerReply{}, false, err
	}
	rx := pc.rx.n
	rep, err := pc.exchange(ctx, deadline, framed)
	return rep, p.release(ctx, pc, reused, rx, err), err
}

// release ends a call on pc that ended in err: a connection the call left
// broken is closed, never pooled. It reports whether a fresh dial may get
// past the failure: the call broke a reused connection before any reply
// byte arrived (rx is what pc had received when the call began), the mark
// of a connection the node dropped while it sat idle, and ctx is live.
func (p *peerPool) release(ctx context.Context, pc *peerConn, reused bool, rx int64, err error) bool {
	if !pc.broken {
		p.put(pc)
		return false
	}
	p.discard(pc)
	return reused && pc.rx.n == rx && err != nil && ctx.Err() == nil
}

// exchange writes framed on pc, unless it is nil (the request is already
// on the wire), and reads the reply, on the calling goroutine. It leaves
// pc.broken set unless the connection is known to be ready for the next
// call.
func (pc *peerConn) exchange(ctx context.Context, deadline time.Time, framed []byte) (rep peerReply, err error) {
	pc.broken = true
	if err := pc.conn.SetDeadline(deadline); err != nil {
		return rep, err
	}
	// Cancellation fails the blocked I/O at once. Once the callback may
	// have run, the deadline is no longer this call's to manage, so the
	// connection is not reused even if the reply came in.
	stop := context.AfterFunc(ctx, pc.interrupt)
	defer func() {
		if !stop() {
			pc.broken = true
			if err != nil {
				err = ctx.Err()
			}
		}
	}()
	if framed != nil {
		if _, err := pc.conn.Write(framed); err != nil {
			return rep, err
		}
	}
	return pc.receive()
}

// interrupt fails pc's blocked I/O at once.
func (pc *peerConn) interrupt() { pc.conn.SetDeadline(time.Unix(1, 0)) }

// receive reads and decodes one reply frame, clearing pc.broken once a
// whole reply is in.
func (pc *peerConn) receive() (peerReply, error) {
	payload, err := pc.in.Next()
	if err != nil {
		return peerReply{}, err
	}
	rep, err := decodeReply(payload)
	if err == nil {
		pc.broken = false
	}
	return rep, err
}

// get hands out an idle connection (unless fresh), else dials one as
// soon as the open bound allows.
func (p *peerPool) get(ctx context.Context, deadline time.Time, fresh bool) (*peerConn, bool, error) {
	idle := p.idle
	if fresh {
		idle = nil
	} else if pc := p.idleConn(); pc != nil {
		return pc, true, nil
	}
	select {
	case pc := <-idle:
		return pc, true, nil
	case p.open <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	pc, err := p.dial(deadline)
	if err != nil {
		<-p.open
	}
	return pc, false, err
}

// idleConn hands out an idle connection, or nil if none is idle.
func (p *peerPool) idleConn() *peerConn {
	select {
	case pc := <-p.idle:
		return pc
	default:
		return nil
	}
}

// put keeps a healthy connection for reuse, or closes it when the idle
// bound is full.
func (p *peerPool) put(pc *peerConn) {
	select {
	case p.idle <- pc:
		if p.closed.Load() { // raced close's drain: drain again
			p.close()
		}
	default:
		p.discard(pc)
	}
}

func (p *peerPool) discard(pc *peerConn) {
	pc.conn.Close()
	<-p.open
}

// close closes the idle connections, and each one in use when its call
// ends.
func (p *peerPool) close() {
	p.closed.Store(true)
	for {
		select {
		case pc := <-p.idle:
			p.discard(pc)
		default:
			return
		}
	}
}

// dial opens a connection to the node and upgrades it to the peer
// protocol: GET /peer on the node's HTTP listener, answered 101.
func (p *peerPool) dial(deadline time.Time) (*peerConn, error) {
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", p.host)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{conn: conn, rx: countingReader{r: conn}}
	pc.br = bufio.NewReaderSize(&pc.rx, frame.DefaultBuffer) // the size frame.NewReader adopts as is
	err = conn.SetDeadline(deadline)
	if err == nil {
		_, err = io.WriteString(conn, "GET "+PeerPath+" HTTP/1.1\r\nHost: "+p.host+
			"\r\nConnection: Upgrade\r\nUpgrade: "+peerProtocol+"\r\n\r\n")
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(pc.br, nil)
	}
	if err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err = fmt.Errorf("%s (%s)", resp.Status, msg)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("peer upgrade: %w", err)
	}
	pc.in = frame.NewReader(pc.br)
	return pc, nil
}

// CheckNow asks every node for its readiness once, in parallel, updating
// the health table the query planner prefers replicas by. The background
// health loop calls it on its cadence; tests and callers wanting a fresh
// view call it directly.
func (c *Cluster) CheckNow(ctx context.Context) {
	done := make(chan struct{}, len(c.nodes))
	req := peerRequest{op: peerReady}
	for _, n := range c.nodes {
		go func(n *node) {
			defer func() { done <- struct{}{} }()
			if rep, err := c.call(ctx, n, &req); err == nil {
				n.mu.Lock()
				n.ready = rep.ready
				n.mu.Unlock()
			}
		}(n)
	}
	for range c.nodes {
		<-done
	}
}
