package vsmartjoin

import (
	"errors"
	"fmt"
	"path/filepath"

	"vsmartjoin/internal/build"
	"vsmartjoin/internal/cluster"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// maxPartitions bounds BuildClusterFiles' partition count: a router
// scatters every query to every partition.
const maxPartitions = 1024

// BuildStats reports what BuildIndexFiles wrote.
type BuildStats struct {
	// Entities is the number of entities written.
	Entities int64
	// SimulatedSeconds is the simulated cluster time of the underlying
	// MapReduce build job (the same cost model AllPairs reports).
	SimulatedSeconds float64
	// SpilledBytes is the shuffle volume spilled to disk (0 unless
	// BuildShuffleBufferBytes forced spilling).
	SpilledBytes int64
}

// BuildIndexFiles materializes a Dataset as a durable index directory
// at opts.Dir — the offline bulk path. Where BuildIndex with a Dir
// WAL-appends every entity through the serving code, BuildIndexFiles
// streams the corpus through the batch MapReduce machinery and writes
// the index's generation-1 snapshot file directly: cold-starting a
// large corpus becomes one batch job instead of a million logged Adds.
// The directory then opens with OpenIndex (or vsmartjoind -data-dir)
// with zero WAL records to replay, answers queries exactly like an
// index built by the same Adds, and accepts further durable mutations.
//
// opts.Dir is required and must not already hold anything; Measure
// means what it does for NewIndex and is recorded in the snapshot's
// header. SnapshotEvery plays no role at build time. Entity IDs are
// assigned in dataset insertion order, exactly as BuildIndex's Adds
// would assign them, so the two paths produce identical results down to
// tie-breaks.
func BuildIndexFiles(d *Dataset, opts IndexOptions) (BuildStats, error) {
	var bs BuildStats
	if opts.Dir == "" {
		return bs, errors.New("vsmartjoin: BuildIndexFiles requires Dir")
	}
	name := opts.Measure
	if name == "" {
		name = "ruzicka"
	}
	m, err := similarity.ByName(name)
	if err != nil {
		return bs, err
	}
	stats, err := build.Build(bulkSource(d), build.Options{
		Dir:                opts.Dir,
		Measure:            m.Name(),
		ShuffleBufferBytes: opts.BuildShuffleBufferBytes,
	})
	if err != nil {
		return bs, fmt.Errorf("vsmartjoin: build index files: %w", err)
	}
	bs.Entities = stats.Entities
	bs.SimulatedSeconds = stats.Job.TotalSeconds
	bs.SpilledBytes = stats.Job.SpilledBytes
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
// routed to one of partitions sub-datasets by the same entity-name
// hash the cluster router writes with (PartitionOfEntity), and each
// sub-dataset is bulk-built (BuildIndexFiles) into
// opts.Dir/node-000 ... node-NNN. Starting one node daemon per
// directory (replicas of a partition copy the same directory) and
// pointing a router at them yields exactly the cluster that routing
// the same entities through Cluster.Add would have built — one batch
// job instead of a million quorum writes.
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
	// Carve by name hash. Dataset.Add merges repeated entities, which is
	// NOT the upsert Cluster.Add applies — but d.Each already yields each
	// entity once with its final (merged) counts, so the sub-datasets see
	// every entity exactly once either way.
	parts := make([]*Dataset, partitions)
	for i := range parts {
		parts[i] = NewDataset()
	}
	if d != nil {
		d.Each(func(entity string, counts map[string]uint32) bool {
			parts[cluster.PartitionOf(entity, partitions)].Add(entity, counts)
			return true
		})
	}
	cs.Partitions = partitions
	cs.Nodes = make([]BuildStats, partitions)
	for p, part := range parts {
		sub := opts
		sub.Dir = filepath.Join(opts.Dir, NodeDirName(p))
		bs, err := BuildIndexFiles(part, sub)
		if err != nil {
			return cs, fmt.Errorf("vsmartjoin: build cluster partition %d: %w", p, err)
		}
		cs.Nodes[p] = bs
	}
	return cs, nil
}

// bulkSource streams a Dataset into the builder with the exact ID
// assignment and element encoding the incremental path would make: IDs
// follow first-seen insertion order, elements encode through the same
// walAddRecord the serving WAL uses (one canonical encoding keeps the
// bulk-equals-incremental differential honest), and a name seen twice
// (possible only by mixing Add and AddByID) yields its first ID again —
// the builder's last-occurrence-wins dedup then reproduces Add's
// upsert. The yielded
// entities are transient: the builder encodes each straight into its
// job-input record, so beyond that input no intermediate copy of the
// corpus is materialized.
func bulkSource(d *Dataset) build.Source {
	return func(yield func(build.Entity) bool) {
		if d == nil {
			return
		}
		byName := make(map[string]uint64, d.Len())
		d.Each(func(entity string, counts map[string]uint32) bool {
			id, ok := byName[entity]
			if !ok {
				id = uint64(len(byName) + 1)
				byName[entity] = id
			}
			rec := walAddRecord(multiset.ID(id), entity, counts)
			return yield(build.Entity{ID: id, Name: entity, Elements: rec.Elements})
		})
	}
}
