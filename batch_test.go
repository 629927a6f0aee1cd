package vsmartjoin

// Unit gates for the batched mutation surface: AddBatch last-write-wins
// coalescing, RemoveBatch counting and duplicate handling, batch
// behavior across a durable restart, and the closed-index contract.

import (
	"fmt"
	"testing"
)

func TestAddBatchLastWriteWins(t *testing.T) {
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = ix.AddBatch([]BatchEntry{
		{Entity: "a", Elements: map[string]uint32{"x": 1}},
		{Entity: "b", Elements: map[string]uint32{"x": 9}},
		{Entity: "a", Elements: map[string]uint32{"y": 2}}, // supersedes the first "a"
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	// "a" must hold only the winning write: it matches on y, not on x.
	ms, err := ix.QueryThreshold(map[string]uint32{"y": 2}, 0.999)
	if err != nil || len(ms) != 1 || ms[0].Entity != "a" {
		t.Fatalf("probe y: %v %v, want exactly entity a", ms, err)
	}
	ms, err = ix.QueryThreshold(map[string]uint32{"x": 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Entity == "a" {
			t.Fatalf("entity a still matches its superseded elements: %v", ms)
		}
	}
	// Upsert across batches replaces, same as Add over Add.
	if err := ix.AddBatch([]BatchEntry{{Entity: "b", Elements: map[string]uint32{"z": 1}}}); err != nil {
		t.Fatal(err)
	}
	ms, err = ix.QueryThreshold(map[string]uint32{"z": 1}, 0.999)
	if err != nil || len(ms) != 1 || ms[0].Entity != "b" {
		t.Fatalf("probe z after upsert: %v %v, want exactly entity b", ms, err)
	}
}

func TestRemoveBatchCounts(t *testing.T) {
	ix, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ix.Add(fmt.Sprintf("e%d", i), map[string]uint32{"x": uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate name in one batch is a no-op the second time, and
	// missing names never count.
	n, err := ix.RemoveBatch([]string{"e1", "missing", "e1", "e3"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if got := ix.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	if n, err := ix.RemoveBatch(nil); err != nil || n != 0 {
		t.Fatalf("empty batch: %d %v", n, err)
	}
}

func TestBatchDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opts := IndexOptions{Measure: "ruzicka", Dir: dir, Durability: DurabilitySync}
	ix, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewIndex(IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	var entries []BatchEntry
	for i := 0; i < 20; i++ {
		entries = append(entries, BatchEntry{
			Entity:   fmt.Sprintf("e%02d", i),
			Elements: map[string]uint32{fmt.Sprintf("el%d", i%6): uint32(i + 1), "shared": 1},
		})
	}
	if err := ix.AddBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := oracle.AddBatch(entries); err != nil {
		t.Fatal(err)
	}
	victims := []string{"e03", "e07", "e11", "nope"}
	if _, err := ix.RemoveBatch(victims); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.RemoveBatch(victims); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	probes := []map[string]uint32{{"shared": 1}, {"el0": 1, "el3": 2}, entries[5].Elements}
	mustAgree(t, "batched mutations after restart", reopened, oracle, probes)
}
