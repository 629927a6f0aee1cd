package cluster

import (
	"context"
	"sync"
)

// pendingOp is one mutation a replica missed, stamped with its place in
// the node's queue. The queue is keyed by entity and keeps only the
// LATEST op per (node, entity): replaying the newest upsert (or remove)
// is sufficient and replaying anything older would be wrong, so order
// within a re-drive batch does not matter.
type pendingOp struct {
	BulkOp
	seq uint64
}

// enqueueRepair records that this node missed (or may have missed) op,
// returning the queue sequence assigned to it. Caller-side writes
// enqueue on every per-replica failure — whether or not the write met
// quorum overall — and pessimistically for every straggler still in
// flight when the write returns at quorum, so the partition converges
// either way.
func (n *node) enqueueRepair(op BulkOp) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pending == nil {
		n.pending = make(map[string]pendingOp)
	}
	n.seq++
	n.pending[op.Entity] = pendingOp{op, n.seq}
	return n.seq
}

// clearRepair drops any pending op for entity: a newer write just
// reached the node, so re-driving the old one would resurrect stale
// state.
func (n *node) clearRepair(entity string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.pending, entity)
}

// clearRepairIf drops the pending op for entity only if it is still
// the one enqueued with seq — the guard straggler bookkeeping needs,
// since by the time a straggler's ack drains, a NEWER failed write may
// have queued its own op under the same entity.
func (n *node) clearRepairIf(entity string, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, ok := n.pending[entity]; ok && cur.seq == seq {
		delete(n.pending, entity)
	}
}

// RepairNow is the anti-entropy pass: every node with pending repair
// ops gets them re-driven as write requests of at most repairChunk
// encoded bytes each — a whole backlog in one request could exceed the
// frame cap and be refused on every pass. An op is cleared only on its
// own chunk's ack, and only if it is still the one that was sent (a
// concurrent write may have superseded it mid-flight — its seq then
// differs and the newer op stays queued). A node that fails a chunk
// keeps the rest of its queue for the next pass. The background repair
// loop calls this on its cadence; tests call it directly for
// determinism.
func (c *Cluster) RepairNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		n.mu.Lock()
		if len(n.pending) == 0 {
			n.mu.Unlock()
			continue
		}
		batch := make([]pendingOp, 0, len(n.pending))
		for _, op := range n.pending {
			batch = append(batch, op)
		}
		n.mu.Unlock()

		wg.Add(1)
		go func(n *node, batch []pendingOp) {
			defer wg.Done()
			muts := make([]BulkOp, len(batch))
			for i, op := range batch {
				muts[i] = op.BulkOp
			}
			for _, chunk := range chunkOps(muts, repairChunk) {
				if _, err := c.call(ctx, n, &peerRequest{op: peerApply, muts: chunk}); err != nil {
					return // still lagging; keep the rest of the queue for the next pass
				}
				c.repairs.Add(int64(len(chunk)))
				for _, op := range batch[:len(chunk)] {
					n.clearRepairIf(op.Entity, op.seq)
				}
				batch = batch[len(chunk):]
			}
		}(n, batch)
	}
	wg.Wait()
}

// repairChunk bounds the encoded ops of one re-drive request, far below
// frame.MaxFrameLen.
const repairChunk = 1 << 20

// PendingRepairs reports the total queued repair ops across nodes —
// zero once anti-entropy has converged every replica.
func (c *Cluster) PendingRepairs() int {
	total := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		total += len(n.pending)
		n.mu.Unlock()
	}
	return total
}
