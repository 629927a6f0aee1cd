// Package wal is a hermetic stub of vsmartjoin/internal/wal: it only
// declares the shapes the walerr analyzer matches by callee identity.
package wal

// Record is one stub WAL record.
type Record struct{ Entity string }

// Log is the stub write-ahead log.
type Log struct{}

func (*Log) Append(Record) error                                     { return nil }
func (*Log) AppendBatchDeferred([]Record) (func() error, error)      { return nil, nil }
func (*Log) Snapshot(int, func(emit func(Record) error) error) error { return nil }
func (*Log) Close() error                                            { return nil }

// WriteSnapshot is the stub package-level snapshot writer.
func WriteSnapshot(path string) error { return nil }
