package cluster

import (
	"context"
	"fmt"
	"sync"
)

// Every node keeps a write ledger, node.pending: for each entity, the
// latest op issued to the replica and the request carrying it. A write's
// place in a replica's order is fixed when it is entered there — by
// quorumWrite, for every replica of the partition under one lock, before
// any request starts — not when its goroutine happens to run. An entry
// leaves the ledger only when a request carrying that very op is
// acknowledged, so the ledger is at once the order requests go out in
// and the repair debt: an op counts as owed from issue until ack.

// owed is one ledger entry.
type owed struct {
	op   BulkOp
	done chan struct{} // of the request carrying op
}

// write is one write request to one replica: it waits out the earlier
// requests for its entities (after), is sent, then settles and closes
// done.
type write struct {
	muts  []BulkOp
	after []chan struct{}
	done  chan struct{}
}

// issueLocked enters muts in n's ledger as one new request; n.mu is held.
func (n *node) issueLocked(muts []BulkOp) *write {
	w := &write{muts: muts, done: make(chan struct{})}
	if n.pending == nil {
		n.pending = make(map[string]owed)
	}
	for _, m := range muts {
		if prev, ok := n.pending[m.Entity]; ok && prev.done != w.done {
			w.after = append(w.after, prev.done)
		}
		n.pending[m.Entity] = owed{m, w.done}
	}
	return w
}

// send runs w on n once the requests it waits out have ended — if ctx
// ends first, w fails without being sent — and settles it before
// returning: an ack removes from the ledger every op w still carries, a
// failure leaves them owed.
func (c *Cluster) send(ctx context.Context, n *node, w *write) (rep peerReply, err error) {
	for _, earlier := range w.after {
		select {
		case <-earlier:
		case <-ctx.Done():
		}
	}
	if err = ctx.Err(); err != nil {
		err = fmt.Errorf("%s %s: %w", n.addr, peerOpNames[peerApply], err)
	} else {
		rep, err = c.call(ctx, n, &peerRequest{op: peerApply, muts: w.muts})
	}
	if err == nil {
		n.mu.Lock()
		for _, m := range w.muts {
			if n.pending[m.Entity].done == w.done {
				delete(n.pending, m.Entity)
			}
		}
		n.mu.Unlock()
	}
	// Even a request that gave up waiting ends after the ones it waited
	// for, so a request waiting on w waits those out too.
	for _, earlier := range w.after {
		<-earlier
	}
	close(w.done)
	return rep, err
}

// RepairNow is the anti-entropy pass: every node owing ops gets them
// re-issued, in one hold of its lock, as requests of at most repairChunk
// encoded bytes each — a whole backlog in one request could exceed the
// frame cap and be refused on every pass. An op whose request is still
// in flight goes again once that request ends, and a live write issued
// later waits for the re-drive, so none can slip in between. After a
// failed chunk the node's later chunks fail unsent; their ops stay owed
// for the next pass. The background repair loop calls this on its
// cadence; tests call it directly for determinism.
func (c *Cluster) RepairNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		n.mu.Lock()
		if len(n.pending) == 0 {
			n.mu.Unlock()
			continue
		}
		muts := make([]BulkOp, 0, len(n.pending))
		for _, o := range n.pending {
			muts = append(muts, o.op)
		}
		var writes []*write
		for _, chunk := range chunkOps(muts, repairChunk) {
			writes = append(writes, n.issueLocked(chunk))
		}
		n.mu.Unlock()

		wg.Add(1)
		go func(n *node, writes []*write) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			for _, w := range writes {
				if _, err := c.send(ctx, n, w); err != nil {
					cancel() // still lagging
				} else {
					c.repairs.Add(int64(len(w.muts)))
				}
			}
		}(n, writes)
	}
	wg.Wait()
}

// repairChunk bounds the encoded ops of one re-drive request, far below
// frame.MaxFrameLen.
const repairChunk = 1 << 20

// PendingRepairs reports the total ops owed across nodes — issued and
// not yet acknowledged, stragglers included — zero once every replica
// has acknowledged every write.
func (c *Cluster) PendingRepairs() int {
	total := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		total += len(n.pending)
		n.mu.Unlock()
	}
	return total
}
