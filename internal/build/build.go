// Package build is the offline bulk index builder: it turns a corpus of
// entities into a ready-to-open durable index directory without ever
// constructing an in-memory inverted index or appending per-record WAL
// frames — the cold-start path the paper's architecture implies, where
// heavy work runs as a scalable batch job and the serving stage merely
// loads its output.
//
// The corpus streams through the internal/mr machinery as one job that
// writes the index's one file: the shuffle sorts every entity by
// (entity ID, input occurrence) secondary key into a single reduce
// group, so it arrives ID-sorted with repeats in upsert order, and the
// one reducer streams it straight into the generation-1 snapshot
// (internal/wal.WriteSnapshot) — sorted, deduplicated, stamped with the
// measure and shard count. That is the file an index's own Snapshot
// writes for the same entities, byte for byte. Shards never route
// anything here: the serving index partitions the entities by ID when
// it loads them. Because the shuffle is the engine's, the builder
// inherits its spill-to-disk mode: a ShuffleBufferBytes cap bounds
// builder memory on corpora that outgrow it.
//
// The whole output directory materializes under a temporary name and is
// renamed into place only when the snapshot is complete, so an
// interrupted build can never be mistaken for an index.
package build

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/wal"
)

// Entity is one corpus entry: the entity ID the serving index will route
// and tie-break by (0 is reserved for ad-hoc queries), its name, and its
// element multiplicities.
type Entity struct {
	ID       uint64
	Name     string
	Elements []wal.Element
}

// Source yields the corpus one entity at a time (stopping if yield
// returns false), so the caller never materializes an intermediate
// slice of Entities: each yield is encoded straight into a job-input
// record. That encoded input is the one full copy the build holds —
// the in-process mr engine takes a materialized dataset, so peak
// memory is the caller's corpus plus its encoded form, with only the
// shuffle itself bounded by Options.ShuffleBufferBytes. The same ID
// may be yielded more than once: occurrences are sequence-stamped and
// the last one wins — upsert semantics, resolved in the reducer.
type Source func(yield func(Entity) bool)

// Entities adapts an in-memory slice to a Source.
func Entities(ents []Entity) Source {
	return func(yield func(Entity) bool) {
		for _, e := range ents {
			if !yield(e) {
				return
			}
		}
	}
}

// Options configures a bulk build.
type Options struct {
	// Dir is the output index directory. It must not exist yet (or be an
	// empty directory): the builder refuses to overwrite an index.
	Dir string
	// Measure is the canonical similarity measure name stamped into the
	// snapshot; opening under a different measure is refused.
	Measure string
	// Shards is the shard count stamped into the snapshot (>= 1): the
	// count an index opening the dir with Shards 0 adopts.
	Shards int
	// Machines is the simulated cluster width of the build job
	// (default 16, like AllPairs).
	Machines int
	// MemPerMachine is the per-machine memory budget in bytes
	// (default 1 GiB).
	MemPerMachine int64
	// ShuffleBufferBytes caps per-map-task shuffle memory before sorted
	// runs spill to disk (0 = all in memory), exactly as in
	// vsmartjoin.Options.
	ShuffleBufferBytes int64
}

// Stats reports what a build wrote.
type Stats struct {
	// Entities is the number of entities written, after deduplication.
	Entities int64
	// Deduped counts input occurrences superseded because a later one
	// carried the same ID — the upsert collapses of a corpus that
	// observes an entity more than once.
	Deduped int64
	// Shards is the shard count the snapshot records.
	Shards int
	// Job is the cost accounting of the underlying MapReduce run.
	Job mr.JobStats
}

const (
	counterEntities = "build.entities"
	counterDeduped  = "build.deduped"
)

// Build writes the corpus as a durable index directory at opts.Dir: one
// generation-1 snapshot, written even for an empty corpus, ready for
// vsmartjoin.OpenIndex.
func Build(src Source, opts Options) (Stats, error) {
	var stats Stats
	if opts.Dir == "" {
		return stats, errors.New("build: no output directory")
	}
	if opts.Measure == "" {
		return stats, errors.New("build: no measure name")
	}
	if opts.Shards < 1 {
		return stats, fmt.Errorf("build: shard count %d < 1", opts.Shards)
	}
	machines := opts.Machines
	if machines == 0 {
		machines = 16
	}
	mem := opts.MemPerMachine
	if mem == 0 {
		mem = 1 << 30
	}
	if err := checkTarget(opts.Dir); err != nil {
		return stats, err
	}
	tmp := opts.Dir + ".building"
	if err := os.RemoveAll(tmp); err != nil {
		return stats, fmt.Errorf("build: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return stats, fmt.Errorf("build: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after the final rename

	input, err := encodeInput(src, 4*machines)
	if err != nil {
		return stats, fmt.Errorf("build: %w", err)
	}
	cluster := mr.NewCluster(machines, mem)
	cluster.ShuffleBufferBytes = opts.ShuffleBufferBytes
	_, jobStats, err := mr.Run(cluster, mr.Job{
		Name:              "bulk-index-build",
		Input:             input,
		Mapper:            mr.MapperFunc(snapshotMapper),
		Reducer:           mr.ReducerFunc(makeSnapshotReducer(tmp, opts.Measure, opts.Shards)),
		NumReducers:       1,
		UsesSecondaryKeys: true, // the reduce group arrives ID-sorted
		OutputName:        "bulk-index-manifest",
	})
	if err != nil {
		return stats, fmt.Errorf("build: %w", err)
	}
	if jobStats.Counters[counterEntities] == 0 { // no record, no reduce group
		if err := wal.WriteSnapshot(tmp, 1, opts.Measure, opts.Shards, func(func(wal.Record) error) error { return nil }); err != nil {
			return stats, fmt.Errorf("build: %w", err)
		}
	}

	// The index only appears under its final name once complete.
	if err := os.Remove(opts.Dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return stats, fmt.Errorf("build: %w", err) // the pre-checked empty dir
	}
	if err := os.Rename(tmp, opts.Dir); err != nil {
		return stats, fmt.Errorf("build: %w", err)
	}

	stats.Entities = jobStats.Counters[counterEntities]
	stats.Deduped = jobStats.Counters[counterDeduped]
	stats.Shards = opts.Shards
	stats.Job = jobStats
	return stats, nil
}

// checkTarget refuses any existing, non-empty output path.
func checkTarget(dir string) error {
	st, err := os.Stat(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if !st.IsDir() {
		return fmt.Errorf("build: %s exists and is not a directory", dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if len(entries) > 0 {
		return fmt.Errorf("build: refusing to overwrite non-empty %s", dir)
	}
	return nil
}

// encodeInput drains the source into a striped mrfs dataset — the one
// materialized copy of the corpus the build holds. The key is the
// big-endian entity ID followed by a big-endian input sequence number:
// the shuffle's byte-lexicographic secondary-key sort then delivers the
// records in (ID, occurrence) order, so numeric ID order for the
// snapshot and last-occurrence-wins for the upsert dedup both fall out
// of the sort. The value is the codec encoding of the name and elements.
func encodeInput(src Source, partitions int) (*mrfs.Dataset, error) {
	if src == nil {
		src = Entities(nil)
	}
	d := mrfs.NewDataset("bulk-index-input", partitions)
	buf := codec.NewBuffer(256)
	var key [16]byte
	var err error
	seq := uint64(0)
	src(func(e Entity) bool {
		if e.ID == 0 {
			err = errors.New("entity ID 0 is reserved for ad-hoc queries")
			return false
		}
		binary.BigEndian.PutUint64(key[:8], e.ID)
		binary.BigEndian.PutUint64(key[8:], seq)
		buf.Reset()
		buf.PutString(e.Name)
		buf.PutUvarint(uint64(len(e.Elements)))
		for _, el := range e.Elements {
			buf.PutString(el.Name)
			buf.PutUint32(el.Count)
		}
		err = d.Append(int(seq%uint64(d.NumPartitions())), mrfs.Record{Key: key[:], Val: buf.Bytes()})
		seq++
		return err == nil
	})
	return d, err
}

// decodeEntity reverses encodeInput's value encoding.
func decodeEntity(id uint64, payload []byte) (Entity, error) {
	r := codec.NewReader(payload)
	e := Entity{ID: id, Name: r.String()}
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()) {
		return Entity{}, fmt.Errorf("build: entity %d claims %d elements in %d bytes", id, n, r.Remaining())
	}
	e.Elements = make([]wal.Element, 0, n)
	for i := uint64(0); i < n; i++ {
		e.Elements = append(e.Elements, wal.Element{Name: r.String(), Count: r.Uint32()})
	}
	if r.Err() != nil || !r.Done() {
		return Entity{}, fmt.Errorf("build: corrupt entity record %d: %v", id, r.Err())
	}
	return e, nil
}

// snapshotKey is the one reduce key: every entity goes to the one
// snapshot.
var snapshotKey = []byte("snap")

// snapshotMapper is the map function: the input key, (ID, occurrence),
// becomes the shuffle's secondary key under the one reduce key.
func snapshotMapper(_ *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	emit.EmitSec(snapshotKey, rec.Key, rec.Val)
	return nil
}

// makeSnapshotReducer returns the reduce function: its one group is the
// full, (ID, occurrence)-sorted entity list, streamed directly into the
// generation-1 snapshot file. Repeated IDs collapse to the last
// occurrence — the secondary key ends in the input sequence number, so
// "last in sort order" is exactly upsert order — and the group never
// materializes beyond the one-record lookahead the dedup needs.
func makeSnapshotReducer(dir, measure string, shards int) func(*mr.TaskContext, []byte, *mr.Values, mr.Emitter) error {
	return func(ctx *mr.TaskContext, _ []byte, values *mr.Values, _ mr.Emitter) error {
		var written, deduped int64
		err := wal.WriteSnapshot(dir, 1, measure, shards, func(emit func(wal.Record) error) error {
			var pending *wal.Record
			flush := func() error {
				if pending == nil {
					return nil
				}
				written++
				err := emit(*pending)
				pending = nil
				return err
			}
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				if len(v.Sec) != 16 {
					return fmt.Errorf("build: secondary key is %d bytes, want 16", len(v.Sec))
				}
				id := binary.BigEndian.Uint64(v.Sec[:8])
				e, err := decodeEntity(id, v.Val)
				if err != nil {
					return err
				}
				if pending != nil && pending.ID == id {
					deduped++ // same ID again: the later occurrence wins
				} else if err := flush(); err != nil {
					return err
				}
				pending = &wal.Record{Op: wal.OpAdd, ID: e.ID, Entity: e.Name, Elements: e.Elements}
			}
			return flush()
		})
		if err != nil {
			return err
		}
		ctx.Counters.Add(counterEntities, written)
		ctx.Counters.Add(counterDeduped, deduped)
		return nil
	}
}
