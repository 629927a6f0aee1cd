package vsmartjoin

// The bulk-build gate: a data dir written offline by BuildIndexFiles
// must be indistinguishable — query for query, score for score, mutation
// for mutation — from an index built by the same Adds through the
// serving path. The differential sweep runs shard counts {1, 3, 8}
// against several measures, checks that opening a bulk-built dir
// replays zero WAL records, and continues mutating after open so the
// write-ahead log demonstrably resumes on top of the bulk-built
// snapshot. The built snapshot is also byte for byte the one an index
// holding the same entities writes, and it opens at any shard count.

import (
	"bytes"
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
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", measure, shards), func(t *testing.T) {
				opts := IndexOptions{Measure: measure, Shards: shards}
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
				if bs.Entities != int64(d.Len()) || bs.Shards != shards {
					t.Fatalf("build stats %+v, want %d entities in %d shards", bs, d.Len(), shards)
				}
				bulk, err := OpenIndex(opts)
				if err != nil {
					t.Fatal(err)
				}

				// The whole point of the bulk path: nothing to replay. The
				// dir opens at generation 1, one snapshot and one empty WAL
				// whatever the shard count.
				if got := dirNames(t, dir); !slices.Equal(got, []string{"snap-00000001", "wal-00000001"}) {
					t.Fatalf("bulk-built dir at %d shards holds %v", shards, got)
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
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: t.TempDir(), Shards: -1}); err == nil {
		t.Fatal("negative shards should fail")
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
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: empty, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndex(IndexOptions{Dir: empty, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 1 {
		t.Fatalf("len %d", ix.Len())
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
// layout: missing dirs, shard-count adoption, the refused per-shard
// layout, and a file that is not a current snapshot.
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

	d := datasetOf(map[string]map[string]uint32{
		"a": {"x": 1, "y": 2},
		"b": {"x": 1},
		"c": {"z": 3},
	})
	dir := filepath.Join(t.TempDir(), "idx")
	if _, err := BuildIndexFiles(d, IndexOptions{Dir: dir, Shards: 3}); err != nil {
		t.Fatal(err)
	}

	// Shards: 0 adopts the recorded count.
	ix, err := OpenIndex(IndexOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Shards; got != 3 {
		t.Fatalf("adopted %d shards, want 3", got)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
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
// generation, in the file name, aside), at 1 and at 3 shards, and the
// empty snapshot NewIndex creates a dir with is the one an empty build
// writes.
func TestBulkBuiltSnapshotIsIndexSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := datasetOf(randomEntities(rng, 50, 30, 8, 4))
	readSnap := func(dir string, gen int) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("snap-%08d", gen)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			built := filepath.Join(t.TempDir(), "built")
			if _, err := BuildIndexFiles(d, IndexOptions{Dir: built, Shards: shards}); err != nil {
				t.Fatal(err)
			}
			emptyBuilt := filepath.Join(t.TempDir(), "empty")
			if _, err := BuildIndexFiles(NewDataset(), IndexOptions{Dir: emptyBuilt, Shards: shards}); err != nil {
				t.Fatal(err)
			}

			served := t.TempDir()
			ix, err := NewIndex(IndexOptions{Dir: served, Shards: shards, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if !bytes.Equal(readSnap(served, 1), readSnap(emptyBuilt, 1)) {
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
			if !bytes.Equal(readSnap(served, 2), readSnap(built, 1)) {
				t.Fatal("Snapshot() after AddDataset differs from the bulk-built snapshot")
			}
		})
	}
}

// TestOpenIndexRepartitions: the shard count a snapshot records is a
// default, not a contract. A dir built at 3 shards opens at 1 and at 5
// and answers exactly like an index that never touched the disk, before
// and after mutations; the count in force when a snapshot is cut is the
// one the next Shards 0 open adopts.
func TestOpenIndexRepartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	entities := randomEntities(rng, 60, 30, 8, 4)
	d := datasetOf(entities)
	var probes []map[string]uint32
	for _, counts := range entities {
		probes = append(probes, counts)
		if len(probes) == 6 {
			break
		}
	}
	for _, shards := range []int{1, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			oracle, err := BuildIndex(d, IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "idx")
			if _, err := BuildIndexFiles(d, IndexOptions{Dir: dir, Shards: 3}); err != nil {
				t.Fatal(err)
			}
			ix, err := OpenIndex(IndexOptions{Dir: dir, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.Stats().Shards; got != shards {
				t.Fatalf("opened at %d shards, want %d", got, shards)
			}
			mustAgree(t, "re-partitioned", ix, oracle, probes)
			for _, tgt := range []*Index{ix, oracle} {
				mustAdd(t, tgt, "fresh", map[string]uint32{"e1": 2, "e2": 1})
				mustRemove(t, tgt, "entity-000")
			}
			mustAgree(t, "re-partitioned, mutated", ix, oracle, probes)
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenIndex(IndexOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Stats().Shards; got != shards {
				t.Fatalf("reopened at %d shards, want the %d the last snapshot recorded", got, shards)
			}
			mustAgree(t, "reopened", re, oracle, probes)
		})
	}
}
