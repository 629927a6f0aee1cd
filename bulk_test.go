package vsmartjoin

// The bulk-build gate: a data dir written offline by BuildIndexFiles
// must be indistinguishable — query for query, score for score, mutation
// for mutation — from an index built by the same Adds through the
// serving path. The differential sweep runs several measures, checks
// that opening a bulk-built dir replays zero WAL records, and continues
// mutating after open so the write-ahead log demonstrably resumes on top
// of the bulk-built snapshot. The built snapshot is also byte for byte
// the one an index holding the same entities writes, and a dir written
// when an index could be sharded still opens.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// walFiles returns every wal-* file under a data dir with its size.
func walFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") {
			st, err := d.Info()
			if err != nil {
				return err
			}
			out[path] = st.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBulkBuiltEqualsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	entities := randomEntities(rng, 60, 30, 8, 4)
	d := datasetOf(entities)
	var probes []map[string]uint32
	for _, counts := range entities {
		probes = append(probes, counts)
		if len(probes) == 6 {
			break
		}
	}

	for _, measure := range []string{"ruzicka", "jaccard", "set-cosine", "overlap"} {
		t.Run(measure, func(t *testing.T) {
			opts := IndexOptions{Measure: measure}
			oracle, err := BuildIndex(d, opts)
			if err != nil {
				t.Fatal(err)
			}

			dir := filepath.Join(t.TempDir(), "bulk")
			opts.Dir = dir
			bs, err := BuildIndexFiles(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if bs.Entities != int64(d.Len()) {
				t.Fatalf("build stats %+v, want %d entities", bs, d.Len())
			}
			bulk, err := OpenIndex(opts)
			if err != nil {
				t.Fatal(err)
			}

			// The whole point of the bulk path: nothing to replay. The
			// dir opens at generation 1, one snapshot and one empty WAL.
			if got := dirNames(t, dir); !slices.Equal(got, []string{"snap-00000001", "wal-00000001"}) {
				t.Fatalf("bulk-built dir holds %v", got)
			}
			if size := walFiles(t, dir)[filepath.Join(dir, "wal-00000001")]; size != 0 {
				t.Fatalf("bulk-built dir has %d WAL bytes to replay", size)
			}
			if g := bulk.Generation(); g != 1 {
				t.Fatalf("bulk-built index opened at generation %d, want 1", g)
			}
			// Bootstrapped entities are mutations: a daemon serving a
			// bulk-built dir must not report Adds: 0 (and through it
			// /readyz's mutation counter) while serving d.Len() entities.
			if st := bulk.Stats(); st.Adds != int64(d.Len()) {
				t.Fatalf("bulk-built index reports Adds %d, want %d", st.Adds, d.Len())
			}

			// Query-after-open: full surface equality with the oracle.
			mustAgree(t, "bulk vs incremental", bulk, oracle, probes)
			for name := range entities {
				g, err := bulk.QueryEntity(name, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				w, err := oracle.QueryEntity(name, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				if len(g) != len(w) {
					t.Fatalf("QueryEntity(%s): %d vs %d matches", name, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("QueryEntity(%s) match %d: %v vs %v", name, i, g[i], w[i])
					}
				}
			}

			// Mutate-after-open: the WAL resumes on top of the bulk
			// snapshots. Upserts, removes, and brand-new entities (which
			// exercise ID assignment continuing past the bulk range).
			i := 0
			for name := range entities {
				switch i % 3 {
				case 0:
					if _, err := bulk.Remove(name); err != nil {
						t.Fatal(err)
					}
					if _, err := oracle.Remove(name); err != nil {
						t.Fatal(err)
					}
				case 1:
					counts := map[string]uint32{fmt.Sprintf("e%d", i%30): uint32(i%4 + 1)}
					if err := bulk.Add(name, counts); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Add(name, counts); err != nil {
						t.Fatal(err)
					}
				}
				i++
			}
			for j := 0; j < 5; j++ {
				name := fmt.Sprintf("fresh-%d", j)
				counts := map[string]uint32{fmt.Sprintf("e%d", j): 2, fmt.Sprintf("e%d", j+9): 1}
				if err := bulk.Add(name, counts); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Add(name, counts); err != nil {
					t.Fatal(err)
				}
			}
			mustAgree(t, "bulk churned", bulk, oracle, probes)

			// Crash (no Close) and recover: snapshots + resumed WAL.
			reopened, err := OpenIndex(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			mustAgree(t, "bulk reopened", reopened, oracle, probes)
		})
	}
}

// TestBulkBuildValidation covers the refusal surface of the bulk path.
func TestBulkBuildValidation(t *testing.T) {
	d := datasetOf(map[string]map[string]uint32{"a": {"x": 1}})
	if _, err := BuildIndexFiles(d, IndexOptions{}); err == nil {
		t.Fatal("BuildIndexFiles without Dir should fail")
	}
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: t.TempDir(), Measure: "no-such"}); err == nil {
		t.Fatal("unknown measure should fail")
	}

	// Refuse to overwrite: anything already in the target dir.
	occupied := t.TempDir()
	if err := os.WriteFile(filepath.Join(occupied, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: occupied}); err == nil {
		t.Fatal("non-empty target should fail")
	}

	// An empty pre-created directory is fine (mkdir-then-build flows).
	empty := t.TempDir()
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: empty}); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndex(IndexOptions{Dir: empty})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 1 {
		t.Fatalf("len %d", ix.Len())
	}
}

// TestBulkBuildEmptyDataset pins that an empty (or nil) Dataset still
// writes a loadable snapshot recording the measure: a dir without one
// is no index, and one without the measure could reopen under another.
func TestBulkBuildEmptyDataset(t *testing.T) {
	for _, d := range []*Dataset{NewDataset(), nil} {
		dir := filepath.Join(t.TempDir(), "idx")
		bs, err := BuildIndexFiles(d, IndexOptions{Dir: dir, Measure: "jaccard"})
		if err != nil {
			t.Fatal(err)
		}
		if bs.Entities != 0 {
			t.Fatalf("build stats %+v, want 0 entities", bs)
		}
		if got := dirNames(t, dir); !slices.Equal(got, []string{"snap-00000001"}) {
			t.Fatalf("empty build wrote %v", got)
		}
		if _, err := OpenIndex(IndexOptions{Dir: dir, Measure: "ruzicka"}); err == nil {
			t.Fatal("an empty jaccard build opened as ruzicka")
		}
		ix, err := OpenIndex(IndexOptions{Dir: dir, Measure: "jaccard"})
		if err != nil {
			t.Fatal(err)
		}
		if n := ix.Len(); n != 0 {
			t.Fatalf("empty build opened with %d entities", n)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterCarvedSnapshotsAreIndexSnapshots pins BuildClusterFiles to
// the one definition of an index's persisted state: each node-NNN
// snapshot is byte for byte the Snapshot() of an index holding exactly
// the entities PartitionOfEntity routes to that partition, added in
// dataset order.
func TestClusterCarvedSnapshotsAreIndexSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := datasetOf(randomEntities(rng, 60, 30, 8, 4))
	const partitions = 3
	dir := filepath.Join(t.TempDir(), "cluster")
	cs, err := BuildClusterFiles(d, IndexOptions{Dir: dir, Measure: "jaccard"}, partitions)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < partitions; p++ {
		served := t.TempDir()
		ix, err := NewIndex(IndexOptions{Dir: served, Measure: "jaccard"})
		if err != nil {
			t.Fatal(err)
		}
		d.Each(func(entity string, counts map[string]uint32) bool {
			if PartitionOfEntity(entity, partitions) == p {
				err = ix.Add(entity, counts)
			}
			return err == nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := int64(ix.Len()); n == 0 || n != cs.Nodes[p].Entities {
			t.Fatalf("partition %d: build reports %d entities, the index holds %d", p, cs.Nodes[p].Entities, n)
		}
		if err := ix.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readSnap(t, served, 2), readSnap(t, filepath.Join(dir, NodeDirName(p)), 1)) {
			t.Fatalf("partition %d: the carved snapshot differs from the index's", p)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestOpenIndexLayout covers OpenIndex/NewIndex against the on-disk
// layout: missing dirs, the refused per-shard layout, and a file that
// is not a current snapshot.
func TestOpenIndexLayout(t *testing.T) {
	if _, err := OpenIndex(IndexOptions{}); err == nil {
		t.Fatal("OpenIndex without Dir should fail")
	}
	if _, err := OpenIndex(IndexOptions{Dir: filepath.Join(t.TempDir(), "absent")}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("missing dir: %v", err)
	}
	if _, err := OpenIndex(IndexOptions{Dir: t.TempDir()}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("empty dir: %v", err)
	}

	// A dir of the retired per-shard layout is refused, not opened as an
	// empty index beside the data it holds.
	perShard := t.TempDir()
	if err := os.Mkdir(filepath.Join(perShard, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func(IndexOptions) (*Index, error){NewIndex, OpenIndex} {
		if _, err := open(IndexOptions{Dir: perShard}); err == nil || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("per-shard layout: %v, want a rebuild error", err)
		}
	}

	// A file under a snapshot name that is not a current snapshot is a
	// hard error, not an empty index.
	bogus := t.TempDir()
	//lint:vsmart-allow framesafety test plants a bogus snap file by hand to prove NewIndex rejects it
	if err := os.WriteFile(filepath.Join(bogus, "snap-00000001"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(IndexOptions{Dir: bogus}); err == nil {
		t.Fatal("a bogus snapshot should fail")
	}
}

// TestBulkBuiltSnapshotIsIndexSnapshot pins one definition of an index's
// persisted state: the bulk builder's snap-00000001 is byte for byte the
// snapshot an index writes after AddDataset-ing the same dataset (its
// generation, in the file name, aside), and the empty snapshot NewIndex
// creates a dir with is the one an empty build writes. Its one leg is
// named for the one partition every index is.
func TestBulkBuiltSnapshotIsIndexSnapshot(t *testing.T) {
	t.Run("shards=1", bulkBuiltSnapshotIsIndexSnapshot)
}

func bulkBuiltSnapshotIsIndexSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := datasetOf(randomEntities(rng, 50, 30, 8, 4))
	built := filepath.Join(t.TempDir(), "built")
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: built}); err != nil {
		t.Fatal(err)
	}
	emptyBuilt := filepath.Join(t.TempDir(), "empty")
	if _, err := BuildIndexFiles(NewDataset(), IndexOptions{Dir: emptyBuilt}); err != nil {
		t.Fatal(err)
	}

	served := t.TempDir()
	ix, err := NewIndex(IndexOptions{Dir: served})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if !bytes.Equal(readSnap(t, served, 1), readSnap(t, emptyBuilt, 1)) {
		t.Fatal("NewIndex's creation snapshot differs from an empty build's")
	}
	if err := ix.AddDataset(d); err != nil {
		t.Fatal(err)
	}
	if err := ix.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := dirNames(t, served); !slices.Equal(got, []string{"snap-00000002", "wal-00000002"}) {
		t.Fatalf("served dir holds %v", got)
	}
	if !bytes.Equal(readSnap(t, served, 2), readSnap(t, built, 1)) {
		t.Fatal("Snapshot() after AddDataset differs from the bulk-built snapshot")
	}
}

// readSnap returns the bytes of a data dir's snapshot of generation gen.
func readSnap(t *testing.T, dir string, gen int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("snap-%08d", gen)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// v3DirOps is the history testdata/v3-three-shards holds: a data dir
// written at 3 shards, automatic snapshots off, by the code that still sharded
// an index in memory, so its snapshot header records 3 shards. The
// snapshotted ops were applied as one batch and cut into snap-00000002
// by Snapshot; the logged ops were applied one per Apply after it and
// left in wal-00000002, with no Close.
func v3DirOps() (snapshotted, logged []Mutation) {
	for i := 0; i < 40; i++ {
		snapshotted = append(snapshotted, Mutation{Op: OpAdd, Entity: fmt.Sprintf("ent-%02d", i), Elements: map[string]uint32{
			fmt.Sprintf("x%d", i%7):  uint32(1 + i%3),
			fmt.Sprintf("y%d", i%5):  2,
			fmt.Sprintf("z%d", i%11): uint32(1 + i%2),
		}})
	}
	for i := 0; i < 40; i += 6 {
		logged = append(logged, Mutation{Op: OpRemove, Entity: fmt.Sprintf("ent-%02d", i)})
	}
	for i := 1; i < 40; i += 9 {
		logged = append(logged, Mutation{Op: OpAdd, Entity: fmt.Sprintf("ent-%02d", i), Elements: map[string]uint32{"x1": 3, "w": 1}})
	}
	logged = append(logged, Mutation{Op: OpAdd, Entity: "ent-06", Elements: map[string]uint32{"y1": 1, "z3": 2}})
	for i := 0; i < 3; i++ {
		logged = append(logged, Mutation{Op: OpAdd, Entity: fmt.Sprintf("fresh-%d", i), Elements: map[string]uint32{fmt.Sprintf("x%d", i): 2, "w": 1}})
	}
	return snapshotted, logged
}

// TestOpenDirWrittenAtThreeShards: a data dir whose snapshot header
// records 3 shards opens as the one partition an index is. It answers
// exactly like an oracle that saw the same history, accepts mutations,
// and its next snapshot is byte for byte the one an index that never
// had shards writes for the same history — so it records 1.
func TestOpenDirWrittenAtThreeShards(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v3-three-shards"))); err != nil {
		t.Fatal(err)
	}
	freshDir := t.TempDir()
	fresh, err := NewIndex(IndexOptions{Dir: freshDir})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	oracle, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snapshotted, logged := v3DirOps()
	for _, tgt := range []*Index{fresh, oracle} {
		if _, err := tgt.Apply(context.Background(), snapshotted); err != nil {
			t.Fatal(err)
		}
		for _, m := range logged {
			if _, err := tgt.Apply(context.Background(), []Mutation{m}); err != nil {
				t.Fatal(err)
			}
		}
	}

	ix, err := OpenIndex(IndexOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	probes := []map[string]uint32{{"x1": 1, "y1": 2}, {"w": 1}, {"z3": 2, "x3": 1}, {"y0": 2, "z0": 1}}
	mustAgree(t, "v3 dir", ix, oracle, probes)
	for _, tgt := range []*Index{ix, fresh, oracle} {
		mustAdd(t, tgt, "after", map[string]uint32{"x1": 2, "y1": 1})
		mustRemove(t, tgt, "ent-01")
	}
	mustAgree(t, "v3 dir, mutated", ix, oracle, probes)

	if err := ix.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSnap(t, dir, 3), readSnap(t, freshDir, 2)) {
		t.Fatal("the v3 dir's next snapshot differs from a one-partition index's for the same history")
	}
}
