// Package cluster is a hermetic stub of the router package: the write
// surface the module root exports as the alias vsmartjoin.Cluster.
package cluster

import "context"

// BulkOp is the stub mutation.
type BulkOp struct {
	Op       string
	Entity   string
	Elements map[string]uint32
}

// BatchEntry is the stub AddBatch entry.
type BatchEntry struct {
	Entity   string
	Elements map[string]uint32
}

// Cluster is the stub multi-node client.
type Cluster struct{}

func (*Cluster) Apply(ctx context.Context, muts []BulkOp) ([]bool, error) { return nil, nil }
func (*Cluster) Add(name string, counts map[string]uint32) error          { return nil }
func (*Cluster) AddBatch(entries []BatchEntry) error                      { return nil }
func (*Cluster) Remove(name string) (bool, error)                         { return false, nil }
func (*Cluster) Snapshot() error                                          { return nil }
