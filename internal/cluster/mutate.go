package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vsmartjoin/internal/metrics"
)

// The write model, declared once for every layer above the write-ahead
// log: BulkOp is at once the public mutation (vsmartjoin.Mutation is an
// alias), the /bulk wire form, and the write ledger's entry, so a
// mutation is never re-declared on its way from an HTTP body to a node.

// Mutation kinds, the values of BulkOp.Op.
const (
	OpAdd    = "add"
	OpRemove = "remove"
)

// BulkOp is one mutation: an upsert (OpAdd; Elements is the entity's
// full new multiset) or a removal (OpRemove; Elements ignored).
type BulkOp struct {
	Op       string            `json:"op"` // OpAdd | OpRemove
	Entity   string            `json:"entity"`
	Elements map[string]uint32 `json:"elements,omitempty"`
}

// BulkRequest is the daemons' POST /bulk body: a batch of mutations
// applied in order, declared here beside BulkOp so every JSON producer
// and internal/httpd share it.
type BulkRequest struct {
	Ops []BulkOp `json:"ops"`
}

// CheckMutations is the one check of what may travel the wire — run by
// both daemons' /bulk and by Cluster.Apply, so a mutation no node would
// accept is refused before it can reach a replica or a write ledger:
// every op names a kind and an entity, and an add carries at least one
// nonzero count (an all-zero add would index a permanently unmatchable
// empty entity). Errors carry no package prefix — callers add their own.
func CheckMutations(muts []BulkOp) error {
	for i, m := range muts {
		switch m.Op {
		case OpAdd:
			if m.Entity == "" || !hasMass(m.Elements) {
				return fmt.Errorf("op %d: add needs an entity and nonzero elements", i)
			}
		case OpRemove:
			if m.Entity == "" {
				return fmt.Errorf("op %d: remove needs an entity", i)
			}
		default:
			return fmt.Errorf("op %d: unknown op %q", i, m.Op)
		}
	}
	return nil
}

func hasMass(elements map[string]uint32) bool {
	for _, c := range elements {
		if c > 0 {
			return true
		}
	}
	return false
}

// Apply is the cluster's one write method: it drives an ordered batch
// of mutations through the grid as one quorum write per touched
// partition. Mutations are grouped by owner partition with their
// relative order preserved (mutations of one entity always share a
// partition, so per-entity order survives the grouping) and each group
// succeeds or fails at majority quorum independently — the returned
// error joins the groups that missed quorum, and mutations routed to
// other partitions are unaffected. An error means NOT guaranteed
// applied, never guaranteed not applied: a replica that fails keeps the
// write's ops owed in its ledger, so partial replicas converge through
// the normal anti-entropy pass. A mutation CheckMutations refuses fails
// the whole batch before anything is sent.
//
// The result reports, per mutation, whether its group reached quorum —
// except for a removal that travelled alone in its group, where it
// reports whether any acknowledging replica still had the entity. Flags
// are meaningful only when err is nil: a group that missed quorum reports
// false whatever its replicas answered.
//
// ctx carries trace values (WithRequestID) onto the node requests; its
// cancellation does NOT abort the write — quorum bookkeeping must
// outlive an impatient caller, so node requests run under the cluster
// timeout alone.
func (c *Cluster) Apply(ctx context.Context, muts []BulkOp) ([]bool, error) {
	if err := CheckMutations(muts); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	owner := make([]int, len(muts))
	groups := make([][]BulkOp, len(c.parts))
	for i, m := range muts {
		owner[i] = PartitionOf(m.Entity, len(c.parts))
		groups[owner[i]] = append(groups[owner[i]], m)
	}
	flags := make([]bool, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for p, group := range groups {
		switch len(group) {
		case 0:
		case len(muts): // the batch's one partition, as for every /add and /remove
			flags[p], errs[p] = c.quorumWrite(ctx, p, group)
		default:
			wg.Add(1)
			go func(p int, group []BulkOp) {
				defer wg.Done()
				flags[p], errs[p] = c.quorumWrite(ctx, p, group)
			}(p, group)
		}
	}
	wg.Wait()
	applied := make([]bool, len(muts))
	for i, p := range owner {
		applied[i] = flags[p]
	}
	return applied, errors.Join(errs...)
}

// Add is Apply for one OpAdd mutation.
func (c *Cluster) Add(entity string, counts map[string]uint32) error {
	_, err := c.Apply(context.Background(), []BulkOp{{Op: OpAdd, Entity: entity, Elements: counts}})
	return err
}

// Remove is Apply for one OpRemove mutation, reporting whether any
// acknowledging replica still had the entity — meaningful only when err
// is nil; a removal that missed quorum reports false.
func (c *Cluster) Remove(entity string) (bool, error) {
	had, err := c.Apply(context.Background(), []BulkOp{{Op: OpRemove, Entity: entity}})
	return len(had) > 0 && had[0], err
}

// AddBatch is Apply for a batch of OpAdd mutations.
func (c *Cluster) AddBatch(entries []BatchEntry) error {
	_, err := c.Apply(context.Background(), AddOps(entries))
	return err
}

// BatchEntry is one entity of an AddBatch: a name with its element
// multiplicities, the same shape Add takes.
type BatchEntry struct {
	Entity   string
	Elements map[string]uint32
}

// AddOps is the OpAdd mutations an AddBatch stands for, in order (an
// Index's AddBatch too).
func AddOps(entries []BatchEntry) []BulkOp {
	muts := make([]BulkOp, len(entries))
	for i, e := range entries {
		muts[i] = BulkOp{Op: OpAdd, Entity: e.Entity, Elements: e.Elements}
	}
	return muts
}

// quorumWrite drives one partition's group of mutations through its
// replica set, one request per replica. The requests are entered in the
// replicas' ledgers (repair.go) under the partition's issue lock before
// any starts, so every replica orders this write against the other
// writes to the same entities alike, whichever goroutine runs first.
//
// The call returns as soon as the outcome is decided — a majority
// acked, or enough replicas failed that a majority is impossible — so
// one hung replica costs its partition nothing but a background
// goroutine: a straggler runs on under the cluster timeout, its ops owed
// until it acks, and its outcome no longer influences the returned error
// or flag — quorum semantics, not unanimity.
func (c *Cluster) quorumWrite(callerCtx context.Context, p int, group []BulkOp) (bool, error) {
	start := metrics.Now()
	replicas := c.parts[p]
	quorum := len(replicas)/2 + 1
	// A lone removal reports whether an acknowledging replica had it.
	loneRemove := len(group) == 1 && group[0].Op == OpRemove

	writes := make([]*write, len(replicas))
	c.issuing[p].Lock()
	for i, n := range replicas {
		n.mu.Lock()
		writes[i] = n.issueLocked(group)
		n.mu.Unlock()
	}
	c.issuing[p].Unlock()

	type outcome struct {
		err error
		had bool // the replica's flag for a lone mutation
	}
	results := make(chan outcome, len(replicas))
	// WithoutCancel keeps the caller's trace values on the node requests
	// while detaching its cancellation: stragglers run on after the caller
	// has moved on, and a request-scoped ctx would abort about-to-succeed
	// replicas and manufacture repair work.
	ctx, cancel := c.withTimeout(context.WithoutCancel(callerCtx))
	for i, n := range replicas {
		go func(n *node, w *write) {
			rep, err := c.send(ctx, n, w)
			results <- outcome{err, len(rep.applied) == 1 && rep.applied[0]}
		}(n, writes[i])
	}

	acks, remaining, flag := 0, len(replicas), false
	var errs []error
	for remaining > 0 && acks < quorum && len(errs) <= len(replicas)-quorum {
		o := <-results
		remaining--
		if o.err != nil {
			errs = append(errs, o.err)
			continue
		}
		acks++
		flag = flag || o.had
	}
	if remaining == 0 {
		cancel()
	} else {
		go func(remaining int) {
			defer cancel()
			for ; remaining > 0; remaining-- {
				<-results
			}
		}(remaining)
	}
	c.writeLatency.ObserveSince(start)
	if !loneRemove {
		flag = acks >= quorum
	}
	if acks >= quorum {
		return flag, nil
	}
	c.writeFails.Add(1)
	// Short of quorum the flag would only say which acks happened to beat
	// the deciding failure: beside an error it means nothing, so it is false.
	return false, fmt.Errorf("cluster: %w: %d-op write (first %q) to partition %d got %d/%d acks (quorum %d): %w",
		ErrUnavailable, len(group), group[0].Entity, p, acks, len(replicas), quorum, errors.Join(errs...))
}
