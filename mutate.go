package vsmartjoin

// The public write path. Every online mutation — an upsert or a removal
// of one named entity — is one Mutation value, and every way of making
// one (Add, Remove, AddBatch, RemoveBatch, AddDataset, the daemon's
// /add, /remove and /bulk) is a batch handed to one method,
// Index.Apply (and, over a cluster of nodes, Cluster.Apply): resolve
// names to IDs → append the batch's records to the index's write-ahead
// log → apply to the name tables and the inner index → wait for durability →
// acknowledge. A batch of one is a batch.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/index"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/wal"
)

// Mutation is one online write, the element of Index.Apply's and
// Cluster.Apply's argument: {Op string; Entity string; Elements
// map[string]uint32} (JSON "op", "entity", "elements" — the daemon's
// /bulk op). OpAdd upserts Entity with Elements as its full new
// multiset, replacing any previous entity of the same name (unlike
// Dataset.Add, which merges; zero counts are ignored); OpRemove deletes
// Entity by name and ignores Elements. The type is declared once, in an
// internal package shared with the cluster router and the HTTP layer,
// and exported here as an alias.
type Mutation = cluster.BulkOp

// The two kinds of Mutation, the values of its Op field.
const (
	OpAdd    = cluster.OpAdd
	OpRemove = cluster.OpRemove
)

// Apply is the one write method of an Index: it applies muts in order
// and reports, per mutation, whether it changed the index — false for
// the removal of a name that is not indexed (a no-op, never logged) and
// for an upsert superseded by a later upsert of the same entity in the
// same batch with no removal in between (coalesced last-write-wins
// before it ever reaches the log). The context is accepted for symmetry
// with Cluster.Apply and unused, the index being local.
//
// A batch costs one WAL append (one write and, under DurabilitySync,
// one group-committed fsync), one write-lock hold of the inner index,
// and one result-cache invalidation. Writes serialize on the
// index: the batch's records are appended to the log in batch order
// before anything is applied, and the apply happens under the same
// name-table lock, so the log's order is the apply order and a
// concurrent removal of the same name cannot slip between the two steps
// and leave a nameless ghost entity behind.
//
// A batch is all or nothing: if the append fails, nothing is applied
// and the error says so (automatic snapshot trouble is reported by
// Snapshot/Close instead). Under DurabilitySync, Apply additionally
// waits — outside the index lock, so queries and other writers keep
// flowing — until a group-committed fsync covers the records; an error
// from that wait means applied in memory but NOT guaranteed durable. It
// fails with ErrIndexClosed after Close on a durable index, and on an Op
// that is neither OpAdd nor OpRemove (nothing is applied); a volatile
// index cannot fail otherwise. Its body is the only code in the package
// that appends to the write-ahead log and mutates the name tables and
// the inner index.
func (ix *Index) Apply(_ context.Context, muts []Mutation) ([]bool, error) {
	for i := range muts {
		if op := muts[i].Op; op != OpAdd && op != OpRemove {
			return nil, fmt.Errorf("vsmartjoin: op %d: unknown op %q", i, op)
		}
	}
	if len(muts) == 0 {
		return nil, nil
	}
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return nil, ErrIndexClosed
	}

	// Pass 1: resolve IDs in order, simulating the name-table effects of
	// earlier ops of the same batch. last maps a name to the latest op of
	// this batch that changed it: after a removal the name is absent,
	// after an upsert it holds that op's ID — and a second upsert with no
	// removal in between supersedes the first (last write wins).
	type resolved struct {
		skip bool // no-op remove, or upsert superseded within the batch
		id   multiset.ID
	}
	res := make([]resolved, len(muts))
	last := map[string]int{}
	for i := range muts {
		m := &muts[i]
		prev, inBatch := last[m.Entity]
		id, present := ix.byName[m.Entity]
		if inBatch {
			id, present = res[prev].id, muts[prev].Op == OpAdd
		}
		switch {
		case m.Op == OpRemove && !present:
			res[i].skip = true
			continue
		case m.Op == OpAdd && !present:
			// An ID burned on a failed append leaves a harmless gap:
			// recovery derives nextID from the highest ID it replays.
			id = ix.nextID
			ix.nextID++
		case m.Op == OpAdd && inBatch:
			res[prev].skip = true
		}
		last[m.Entity] = i
		res[i].id = id
	}

	// Pass 2: one WAL append for the batch, still under ix.mu so the
	// log's order is the apply order and cannot interleave with a
	// snapshot cut. The commit wait is paid after the lock drops.
	wait := func() error { return nil }
	if ix.log != nil {
		recs := make([]wal.Record, 0, len(muts))
		for i, m := range muts {
			switch {
			case res[i].skip:
			case m.Op == OpRemove:
				recs = append(recs, wal.Record{Op: wal.OpRemove, Entity: m.Entity})
			default:
				recs = append(recs, walAddRecord(res[i].id, m.Entity, m.Elements))
			}
		}
		var err error
		if wait, err = ix.log.AppendBatchDeferred(recs); err != nil {
			ix.mu.Unlock()
			return nil, fmt.Errorf("vsmartjoin: append: %w", err)
		}
	}

	// Pass 3: apply in batch order — name tables inline, the inner index
	// in one ApplyBatch.
	ops := make([]index.BatchOp, 0, len(muts))
	applied := make([]bool, len(muts))
	for i, m := range muts {
		r := res[i]
		if r.skip {
			continue
		}
		if m.Op == OpRemove {
			delete(ix.byName, m.Entity)
			ix.order.remove(m.Entity)
			ops = append(ops, index.BatchOp{Remove: true, ID: r.id})
		} else {
			if _, ok := ix.byName[m.Entity]; !ok { // an upsert of an indexed name skips the search
				ix.order.insert(m.Entity)
			}
			ix.byName[m.Entity] = r.id
			ops = append(ops, index.BatchOp{Set: ix.internCounts(r.id, m.Elements), Name: m.Entity})
		}
		applied[i] = true
	}
	ix.inner.ApplyBatch(ops)
	if len(ops) > 0 {
		ix.gen.Add(1) // one generation bump invalidates the cache for the whole batch
		if ix.log != nil {
			ix.snapshotIfOutgrownLocked()
		}
	}
	ix.mu.Unlock()

	// Pass 4: the durability wait, outside every lock.
	if err := wait(); err != nil {
		return applied, fmt.Errorf("vsmartjoin: commit: %w", err)
	}
	return applied, nil
}

// Add is Apply for one OpAdd mutation.
func (ix *Index) Add(entity string, counts map[string]uint32) error {
	_, err := ix.Apply(context.Background(), []Mutation{{Op: OpAdd, Entity: entity, Elements: counts}})
	return err
}

// Remove is Apply for one OpRemove mutation, reporting whether the
// entity was indexed.
func (ix *Index) Remove(entity string) (bool, error) {
	applied, err := ix.Apply(context.Background(), []Mutation{{Op: OpRemove, Entity: entity}})
	return len(applied) > 0 && applied[0], err
}

// AddBatch is Apply for a batch of OpAdd mutations.
func (ix *Index) AddBatch(entries []BatchEntry) error {
	_, err := ix.Apply(context.Background(), cluster.AddOps(entries))
	return err
}

// RemoveBatch is Apply for a batch of OpRemove mutations, reporting how
// many of the names were indexed and removed.
func (ix *Index) RemoveBatch(entities []string) (int, error) {
	muts := make([]Mutation, len(entities))
	for i, e := range entities {
		muts[i] = Mutation{Op: OpRemove, Entity: e}
	}
	applied, err := ix.Apply(context.Background(), muts)
	removed := 0
	for _, ok := range applied {
		if ok {
			removed++
		}
	}
	return removed, err
}

// AddDataset upserts every entity of d, in the dataset's order, through
// Apply in chunks of applyChunk — on a durable index one WAL write per
// chunk instead of one per entity. It stops at the
// first chunk that fails. To materialize a large corpus as snapshot
// files instead, use BuildIndexFiles + OpenIndex.
func (ix *Index) AddDataset(d *Dataset) error {
	chunk := make([]Mutation, 0, applyChunk)
	var err error
	flush := func() bool {
		_, err = ix.Apply(context.Background(), chunk)
		chunk = chunk[:0]
		return err == nil
	}
	d.Each(func(entity string, counts map[string]uint32) bool {
		chunk = append(chunk, Mutation{Op: OpAdd, Entity: entity, Elements: counts})
		return len(chunk) < applyChunk || flush()
	})
	if err == nil {
		flush()
	}
	return err
}

// BuildIndex loads every entity of a Dataset into a fresh index with
// AddDataset.
func BuildIndex(d *Dataset, opts IndexOptions) (*Index, error) {
	ix, err := NewIndex(opts)
	if err != nil || d == nil {
		return ix, err
	}
	if err := ix.AddDataset(d); err != nil {
		ix.Close() // the load error is what the caller gets
		return nil, err
	}
	return ix, nil
}

// walAddRecord builds the logged form of an upsert: element names
// sorted, zero counts dropped, so identical mutations always encode
// identically.
func walAddRecord(id multiset.ID, entity string, counts map[string]uint32) wal.Record {
	names := make([]string, 0, len(counts))
	for name, c := range counts {
		if c > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	elems := make([]wal.Element, len(names))
	for i, name := range names {
		elems[i] = wal.Element{Name: name, Count: counts[name]}
	}
	return wal.Record{Op: wal.OpAdd, ID: uint64(id), Entity: entity, Elements: elems}
}

// internCounts interns a counts map into entity id's multiset, dropping
// zero counts — the map-shaped twin of internElements. A map names each
// element once, so sorting the entries is all multiset.New would do,
// minus its copy. Caller holds ix.mu (Intern mutates the dictionary).
func (ix *Index) internCounts(id multiset.ID, counts map[string]uint32) multiset.Multiset {
	entries := make([]multiset.Entry, 0, len(counts))
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		entries = append(entries, multiset.Entry{Elem: ix.dict.Intern(elem), Count: c})
	}
	slices.SortFunc(entries, func(a, b multiset.Entry) int { return cmp.Compare(a.Elem, b.Elem) })
	return multiset.Multiset{ID: id, Entries: entries}
}
