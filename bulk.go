package vsmartjoin

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/wal"
)

// maxPartitions bounds BuildClusterFiles' partition count: a router
// scatters every query to every partition.
const maxPartitions = 1024

// BuildStats reports what BuildIndexFiles wrote.
type BuildStats struct {
	// Entities is the number of entities written.
	Entities int64
}

// BuildIndexFiles materializes a Dataset as a durable index directory
// at opts.Dir — the offline bulk path. Where BuildIndex with a Dir
// WAL-appends every entity through the serving code, BuildIndexFiles
// writes the index's generation-1 snapshot file directly in one pass
// over the Dataset: cold-starting a large corpus becomes one file write
// instead of a million logged Adds. The directory then opens with
// OpenIndex (or vsmartjoind -data-dir) with zero WAL records to replay,
// answers queries exactly like an index built by the same Adds, and
// accepts further durable mutations.
//
// opts.Dir is required and must not already hold anything; Measure
// means what it does for NewIndex and is recorded in the snapshot's
// header. The snapshot's size is also the log size (at least 1 MiB) at
// which the opened index cuts its first automatic snapshot. Entity IDs
// are assigned in dataset insertion order, exactly as BuildIndex's Adds
// would assign them, so the two paths produce identical results down to
// tie-breaks. The directory materializes under a temporary name and is
// renamed into place only once the snapshot is complete, so a failed
// build never leaves an index behind.
func BuildIndexFiles(d *Dataset, opts IndexOptions) (BuildStats, error) {
	var bs BuildStats
	if opts.Dir == "" {
		return bs, errors.New("vsmartjoin: BuildIndexFiles requires Dir")
	}
	m, err := measureByName(opts.Measure)
	if err != nil {
		return bs, err
	}
	recs := bulkRecords(d, 1)[0]
	if err := writeIndexDir(opts.Dir, m.Name(), recs); err != nil {
		return bs, fmt.Errorf("vsmartjoin: build index files: %w", err)
	}
	bs.Entities = int64(len(recs))
	return bs, nil
}

// ClusterBuildStats reports what BuildClusterFiles wrote.
type ClusterBuildStats struct {
	// Partitions is the number of node directories written.
	Partitions int
	// Nodes holds one BuildStats per node directory, in partition order.
	Nodes []BuildStats
}

// NodeDirName is the directory name BuildClusterFiles gives partition
// p's index under the output directory ("node-000", "node-001", ...).
func NodeDirName(p int) string { return fmt.Sprintf("node-%03d", p) }

// BuildClusterFiles carves a Dataset into per-node index directories —
// the bulk cold-start path for a vsmartjoind cluster. Every entity is
// routed to one of partitions indexes by the same entity-name hash the
// cluster router writes with (PartitionOfEntity), and each partition is
// written as BuildIndexFiles would write the entities routed to it,
// into opts.Dir/node-000 ... node-NNN. Starting one node daemon per
// directory (replicas of a partition copy the same directory) and
// pointing a router at them yields exactly the cluster that routing
// the same entities through Cluster.Add would have built — one pass
// over the corpus instead of a million quorum writes.
//
// opts is interpreted as for BuildIndexFiles, with opts.Dir naming the
// parent of the node directories. partitions must match the router's
// partition count — entities would otherwise be searched on nodes that
// do not hold them.
func BuildClusterFiles(d *Dataset, opts IndexOptions, partitions int) (ClusterBuildStats, error) {
	var cs ClusterBuildStats
	if opts.Dir == "" {
		return cs, errors.New("vsmartjoin: BuildClusterFiles requires Dir")
	}
	if partitions < 1 || partitions > maxPartitions {
		return cs, fmt.Errorf("vsmartjoin: partition count %d outside [1, %d]", partitions, maxPartitions)
	}
	m, err := measureByName(opts.Measure)
	if err != nil {
		return cs, err
	}
	cs.Partitions = partitions
	cs.Nodes = make([]BuildStats, partitions)
	for p, recs := range bulkRecords(d, partitions) {
		if err := writeIndexDir(filepath.Join(opts.Dir, NodeDirName(p)), m.Name(), recs); err != nil {
			return cs, fmt.Errorf("vsmartjoin: build cluster partition %d: %w", p, err)
		}
		cs.Nodes[p].Entities = int64(len(recs))
	}
	return cs, nil
}

// bulkRecords turns a Dataset into the snapshot records of partitions
// indexes, each entity routed by PartitionOfEntity, with the exact ID
// assignment and element encoding the incremental path would make: a
// partition's IDs follow first-seen insertion order from 1, and
// elements encode through the same walAddRecord the serving WAL uses
// (one canonical encoding keeps the bulk-equals-incremental
// differential honest). A Dataset holds each name once, so a
// partition's records are in ascending ID order, the order a snapshot
// holds them in.
func bulkRecords(d *Dataset, partitions int) [][]wal.Record {
	parts := make([][]wal.Record, partitions)
	if d == nil {
		return parts
	}
	for p := range parts {
		parts[p] = make([]wal.Record, 0, d.Len()/partitions)
	}
	d.Each(func(entity string, counts map[string]uint32) bool {
		p := cluster.PartitionOf(entity, partitions)
		parts[p] = append(parts[p], walAddRecord(multiset.ID(len(parts[p])+1), entity, counts))
		return true
	})
	return parts
}

// writeIndexDir writes recs as the generation-1 snapshot of a new index
// directory. The directory is built under dir + ".building" and renamed
// into place only once the snapshot is complete, so a failed build
// never leaves an index-shaped directory behind.
func writeIndexDir(dir, measure string, recs []wal.Record) error {
	if err := checkTarget(dir); err != nil {
		return err
	}
	tmp := dir + ".building"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // no-op after the final rename
	err := wal.WriteSnapshot(tmp, 1, measure, func(emit func(wal.Record) error) error {
		for _, rec := range recs {
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := os.Remove(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err // the pre-checked empty dir
	}
	return os.Rename(tmp, dir)
}

// checkTarget refuses any existing, non-empty output path.
func checkTarget(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		return fmt.Errorf("refusing to overwrite non-empty %s", dir)
	}
	return nil
}
