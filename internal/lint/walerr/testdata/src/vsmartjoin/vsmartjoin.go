// Package vsmartjoin is a hermetic stub of the module root: just the
// public mutation surface the walerr analyzer holds to the durability
// contract.
package vsmartjoin

import (
	"context"

	"vsmartjoin/internal/cluster"
)

// Index is the stub durable index.
type Index struct{}

// BatchEntry is the stub AddBatch entry, an alias as in the module.
type BatchEntry = cluster.BatchEntry

// Mutation is the stub mutation, an alias as in the module.
type Mutation = cluster.BulkOp

// Dataset is the stub entity collection.
type Dataset struct{}

func (*Index) Apply(ctx context.Context, muts []Mutation) ([]bool, error) { return nil, nil }
func (*Index) Add(name string, counts map[string]uint32) error            { return nil }
func (*Index) AddBatch(entries []BatchEntry) error                        { return nil }
func (*Index) AddDataset(d *Dataset) error                                { return nil }
func (*Index) Remove(name string) (bool, error)                           { return false, nil }
func (*Index) RemoveBatch(names []string) (int, error)                    { return 0, nil }
func (*Index) Snapshot() error                                            { return nil }

// Cluster is the stub multi-node client: like the module's, an alias of
// the router package's type, whose methods walerr matches there.
type Cluster = cluster.Cluster
