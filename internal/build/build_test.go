package build

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vsmartjoin/internal/wal"
)

func corpus(n int) []Entity {
	out := make([]Entity, n)
	for i := range out {
		out[i] = Entity{
			ID:   uint64(i + 1),
			Name: fmt.Sprintf("entity-%03d", i),
			Elements: []wal.Element{
				{Name: fmt.Sprintf("e%d", i%7), Count: uint32(i%3 + 1)},
				{Name: "shared", Count: 1},
			},
		}
	}
	return out
}

// load reopens a built dir through the wal and returns its records,
// separating snapshot body from WAL tail, and the recorded shard count.
func load(t *testing.T, dir string, measure string) (snap, tail []wal.Record, shards int) {
	t.Helper()
	l, err := wal.Open(dir, measure,
		func(rec wal.Record) error { snap = append(snap, rec); return nil },
		func(rec wal.Record) error { tail = append(tail, rec); return nil })
	if err != nil {
		t.Fatal(err)
	}
	shards = l.Shards()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return snap, tail, shards
}

func TestBuildWritesLoadableShards(t *testing.T) {
	const shards = 4
	ents := corpus(37)
	dir := filepath.Join(t.TempDir(), "idx")
	stats, err := Build(Entities(ents), Options{Dir: dir, Measure: "ruzicka", Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entities != int64(len(ents)) || stats.Shards != shards || stats.Deduped != 0 {
		t.Fatalf("stats %+v", stats)
	}
	// One file, whatever the shard count: the shards are the serving
	// index's business.
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{wal.SnapName(1)}) {
		t.Fatalf("dir holds %v, want only %s", names, wal.SnapName(1))
	}

	snap, tail, recorded := load(t, dir, "ruzicka")
	if len(tail) != 0 || recorded != shards {
		t.Fatalf("%d WAL records to replay and %d shards recorded, want 0 and %d", len(tail), recorded, shards)
	}
	if len(snap) != len(ents) {
		t.Fatalf("snapshot holds %d entities, corpus has %d", len(snap), len(ents))
	}
	for i, rec := range snap {
		// The corpus is in ascending ID order, so the snapshot must be too.
		if rec.Op != wal.OpAdd || rec.ID != ents[i].ID || rec.Entity != ents[i].Name || !reflect.DeepEqual(rec.Elements, ents[i].Elements) {
			t.Fatalf("record %d: %+v want %+v", i, rec, ents[i])
		}
	}
}

// dirNames lists a directory's entries.
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

func TestBuildEmptyCorpus(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	stats, err := Build(nil, Options{Dir: dir, Measure: "jaccard", Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entities != 0 {
		t.Fatalf("stats %+v", stats)
	}
	// An empty corpus still leaves a loadable snapshot recording the
	// measure and the shard count: a dir without one is no index.
	snap, tail, shards := load(t, dir, "jaccard")
	if len(snap) != 0 || len(tail) != 0 || shards != 3 {
		t.Fatalf("%d snap + %d tail records, %d shards recorded", len(snap), len(tail), shards)
	}
}

func TestBuildDedupsByID(t *testing.T) {
	ents := []Entity{
		{ID: 1, Name: "a", Elements: []wal.Element{{Name: "x", Count: 1}}},
		{ID: 2, Name: "b", Elements: []wal.Element{{Name: "x", Count: 2}}},
		{ID: 1, Name: "a", Elements: []wal.Element{{Name: "y", Count: 3}}},
	}
	dir := filepath.Join(t.TempDir(), "idx")
	stats, err := Build(Entities(ents), Options{Dir: dir, Measure: "ruzicka", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entities != 2 || stats.Deduped != 1 {
		t.Fatalf("stats %+v", stats)
	}
	snap, _, _ := load(t, dir, "ruzicka")
	if len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
	// The LAST occurrence of ID 1 wins — upsert semantics.
	if len(snap[0].Elements) != 1 || snap[0].Elements[0] != (wal.Element{Name: "y", Count: 3}) {
		t.Fatalf("dedup kept the wrong occurrence: %+v", snap[0])
	}
}

func TestBuildRefusals(t *testing.T) {
	ents := corpus(3)
	if _, err := Build(Entities(ents), Options{Measure: "ruzicka", Shards: 1}); err == nil {
		t.Fatal("missing dir accepted")
	}
	if _, err := Build(Entities(ents), Options{Dir: t.TempDir() + "/x", Shards: 1}); err == nil {
		t.Fatal("missing measure accepted")
	}
	if _, err := Build(Entities(ents), Options{Dir: t.TempDir() + "/x", Measure: "ruzicka"}); err == nil {
		t.Fatal("zero shards accepted")
	}
	// ID 0 is reserved; the job must fail and leave no index behind.
	dir := filepath.Join(t.TempDir(), "idx")
	if _, err := Build(Entities([]Entity{{ID: 0, Name: "zero"}}), Options{Dir: dir, Measure: "ruzicka", Shards: 1}); err == nil {
		t.Fatal("ID 0 accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("failed build left output behind: %v", err)
	}
	// Occupied target.
	occupied := t.TempDir()
	os.WriteFile(filepath.Join(occupied, "f"), []byte("x"), 0o644)
	if _, err := Build(Entities(ents), Options{Dir: occupied, Measure: "ruzicka", Shards: 1}); err == nil {
		t.Fatal("non-empty target accepted")
	}
}

// TestBuildSpills pins that the builder inherits the engine's
// spill-to-disk shuffle: a tiny buffer must force spilling and still
// produce a byte-identical snapshot.
func TestBuildSpills(t *testing.T) {
	ents := corpus(64)
	plain := filepath.Join(t.TempDir(), "plain")
	if _, err := Build(Entities(ents), Options{Dir: plain, Measure: "ruzicka", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	spilled := filepath.Join(t.TempDir(), "spilled")
	// One simulated machine → few map tasks → enough records per task
	// to overflow a 256-byte buffer.
	stats, err := Build(Entities(ents), Options{Dir: spilled, Measure: "ruzicka", Shards: 2, Machines: 1, ShuffleBufferBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Job.SpilledBytes == 0 {
		t.Fatal("256-byte buffer did not spill")
	}
	a, err := os.ReadFile(filepath.Join(plain, wal.SnapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(spilled, wal.SnapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the snapshot differs between spilled and in-memory shuffle")
	}
}
