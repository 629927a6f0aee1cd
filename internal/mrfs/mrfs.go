// Package mrfs simulates the distributed file system underneath the
// MapReduce engine (GFS/HDFS in the paper). A Dataset is an ordered list of
// partitions, each one Batch of encoded records; partitions are the unit of
// map parallelism and byte sizes are tracked so the cluster cost model can
// charge I/O faithfully.
package mrfs

import (
	"bytes"
	"fmt"
	"slices"
)

// Record is one key/value pair: the three-slice view of a Batch entry
// handed to map functions and returned by Dataset.All and Sorted. Sec
// carries the optional secondary key used by engines that support
// value-list sorting (Google MR does, Hadoop does not — see the paper §2).
type Record struct {
	Key []byte
	Sec []byte
	Val []byte
}

// recordOverhead is the framing charged per record on top of its fields.
const recordOverhead = 6

// Size reports the encoded size of the record in bytes, the quantity the
// cost model charges for I/O and shuffle traffic.
func (r Record) Size() int64 {
	return int64(len(r.Key)+len(r.Sec)+len(r.Val)) + recordOverhead
}

// Dataset is a partitioned collection of records.
type Dataset struct {
	Name  string
	parts []*Batch
}

// NewDataset returns an empty dataset with n partitions.
func NewDataset(name string, n int) *Dataset {
	if n < 1 {
		n = 1
	}
	d := &Dataset{Name: name, parts: make([]*Batch, n)}
	for p := range d.parts {
		d.parts[p] = new(Batch)
	}
	return d
}

// FromRecords builds a dataset by striping records round-robin over n
// partitions, mimicking block placement of a distributed file system.
func FromRecords(name string, records []Record, n int) (*Dataset, error) {
	d := NewDataset(name, n)
	for i, r := range records {
		if err := d.Append(i%len(d.parts), r); err != nil {
			return nil, fmt.Errorf("mrfs: dataset %q record %d: %w", name, i, err)
		}
	}
	return d, nil
}

// Append copies a record into partition p. It fails only with
// ErrFieldTooLarge.
func (d *Dataset) Append(p int, r Record) error {
	return d.parts[p].Append(r.Key, r.Sec, r.Val)
}

// Partition returns partition p's batch.
func (d *Dataset) Partition(p int) *Batch { return d.parts[p] }

// NumPartitions reports the partition count.
func (d *Dataset) NumPartitions() int { return len(d.parts) }

// NumRecords reports the total record count.
func (d *Dataset) NumRecords() int64 {
	var n int64
	for _, p := range d.parts {
		n += int64(p.Len())
	}
	return n
}

// Bytes reports the total encoded size of all records.
func (d *Dataset) Bytes() int64 {
	var n int64
	for _, p := range d.parts {
		n += p.Bytes()
	}
	return n
}

// All returns every record in partition order. The slice is freshly
// allocated; records are views of the dataset's storage.
func (d *Dataset) All() []Record {
	out := make([]Record, 0, d.NumRecords())
	for _, p := range d.parts {
		for i := 0; i < p.Len(); i++ {
			out = append(out, p.Record(i))
		}
	}
	return out
}

// Sorted returns all records ordered by (Key, Sec, Val) — a deterministic
// view for tests and output files.
func (d *Dataset) Sorted() []Record {
	out := d.All()
	slices.SortFunc(out, Compare)
	return out
}

// Compare orders records by (Key, Sec, Val), byte-lexicographically.
func Compare(a, b Record) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Sec, b.Sec); c != 0 {
		return c
	}
	return bytes.Compare(a.Val, b.Val)
}

// Less reports whether a sorts before b under Compare.
func Less(a, b Record) bool { return Compare(a, b) < 0 }
