package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// appendBatch writes recs and settles their durability, the way Append
// does for one record.
func appendBatch(l *Log, recs []Record) error {
	wait, err := l.AppendBatchDeferred(recs)
	if err != nil {
		return err
	}
	return wait()
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	batch := []Record{
		addRec("ip-1", Element{"a", 3}),
		addRec("ip-2", Element{"b", 1}, Element{"c", 2}),
		removeRec("ip-1"),
		addRec("ip-1", Element{"d", 7}),
	}
	if err := appendBatch(l, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := appendBatch(l, batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec("ip-3", Element{"e", 1})); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)

	want := append(append([]Record{}, batch...), addRec("ip-3", Element{"e", 1}))
	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	m := l2.Metrics()
	if n := m.Records.Load(); n != 0 {
		t.Fatalf("reopened log should start Records at 0, got %d", n)
	}
}

func TestAppendBatchRejectsBadOpWithoutWriting(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "jaccard")
	if err := l.Append(addRec("keep", Element{"x", 1})); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		addRec("drop-1", Element{"y", 1}),
		{Op: 99, Entity: "drop-2"},
	}
	if err := appendBatch(l, bad); err == nil {
		t.Fatal("batch with bad op accepted")
	}
	closeLog(t, l)
	// All-or-nothing: the good prefix of the failed batch must not have
	// reached the file.
	got, l2 := collect(t, dir, "jaccard")
	defer closeLog(t, l2)
	if len(got) != 1 || got[0].Entity != "keep" {
		t.Fatalf("after failed batch: %+v", got)
	}
}

// TestTornBatchRecoversPrefix crashes mid-batch: the frames of one
// AppendBatch hit the disk as a contiguous stream, so a machine crash
// can shear the stream anywhere. Recovery must keep the intact prefix
// of the batch and truncate the rest.
func TestTornBatchRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	batch := []Record{
		addRec("a", Element{"x", 1}),
		addRec("b", Element{"y", 2}),
		addRec("c", Element{"z", 3}),
	}
	if err := appendBatch(l, batch); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)

	// Shear the last record's frame: drop 2 bytes from the file tail.
	path := filepath.Join(dir, walName(1))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if !reflect.DeepEqual(got, batch[:2]) {
		t.Fatalf("torn batch: got %+v, want prefix %+v", got, batch[:2])
	}
}

// TestGroupCommitCoalescesFsyncs drives a sync-mode log from many
// goroutines and checks both durability bookkeeping and amortization:
// every acknowledged record must be covered by the ledger, and the
// fsync count must be far below the record count.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	dir := t.TempDir()
	apply := func(Record) error { return nil }
	l, err := Open(dir, "ruzicka", apply, apply, WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := addRec("e", Element{"x", uint32(w*each + i + 1)})
				if i%10 == 0 {
					if err := appendBatch(l, []Record{rec, rec}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	m := l.Metrics()
	records := m.Records.Load()
	fsyncs := int64(m.Fsync.Snapshot().Count)
	if records == 0 || fsyncs == 0 {
		t.Fatalf("metrics not recorded: records=%d fsyncs=%d", records, fsyncs)
	}
	// Acknowledged means covered: every append returned, so the ledger
	// must have caught up with the sequence counter.
	l.mu.Lock()
	synced := l.synced
	seq := l.seq
	l.mu.Unlock()
	if synced != seq {
		t.Fatalf("acknowledged %d records but ledger covers %d", seq, synced)
	}
	if fsyncs*2 > records {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d records", fsyncs, records)
	}
	if gc := m.GroupCommit.Snapshot(); gc.Sum != uint64(seq) {
		t.Fatalf("GroupCommit histogram covers %d records, want %d", gc.Sum, seq)
	}
	closeLog(t, l)

	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if int64(len(got)) != records {
		t.Fatalf("replayed %d records, appended %d", len(got), records)
	}
}

// TestGroupCommitCloseReleasesWaiters closes a sync-mode log while
// appenders race it; every appender must return (acknowledged durable
// or refused), never hang on the commit ledger.
func TestGroupCommitCloseReleasesWaiters(t *testing.T) {
	dir := t.TempDir()
	apply := func(Record) error { return nil }
	// Four appenders keep a commit in flight most of the time, so Close
	// usually runs while some of them wait on a leader's fsync.
	l, err := Open(dir, "ruzicka", apply, apply, WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Errors are expected once Close wins the race; hanging
				// is the failure mode under test.
				if l.Append(addRec("e", Element{"x", 1})) != nil {
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	closeLog(t, l)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appenders still blocked after Close")
	}
	if err := l.Append(addRec("e", Element{"x", 1})); err == nil {
		t.Fatal("append accepted after Close")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestGroupCommitSnapshotRotation checks a snapshot under group commit
// counts as a commit (the fsynced snapshot captures all appended
// records) and that appends keep flowing after rotation.
func TestGroupCommitSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	apply := func(Record) error { return nil }
	l, err := Open(dir, "ruzicka", apply, apply, WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, []Record{addRec("a", Element{"x", 1}), addRec("b", Element{"y", 2})}); err != nil {
		t.Fatal(err)
	}
	err = l.Snapshot(func(emit func(Record) error) error {
		if err := emit(addRec("a", Element{"x", 1})); err != nil {
			return err
		}
		return emit(addRec("b", Element{"y", 2}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec("c", Element{"z", 3})); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)

	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if len(got) != 3 || got[2].Entity != "c" {
		t.Fatalf("after rotation: %+v", got)
	}
}

// TestGroupCommitRacesSnapshot races sync-mode appenders against a loop
// of Snapshot rotations and then Close. A leader fsyncs outside the log
// lock, so a rotation or Close that swapped or closed the file under it
// would fail that commit: every append must be acknowledged or refused
// because the log closed, and every acknowledged record must replay.
func TestGroupCommitRacesSnapshot(t *testing.T) {
	dir := t.TempDir()
	apply := func(Record) error { return nil }
	l, err := Open(dir, "ruzicka", apply, apply, WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	// logged holds every record handed to the log, noted before its
	// append, so a snapshot never misses one the rotated-away WAL held.
	var mu sync.Mutex
	var logged, acked []Record
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := addRec(fmt.Sprintf("w%d-%03d", w, i), Element{"x", 1})
				mu.Lock()
				logged = append(logged, rec)
				mu.Unlock()
				if err := l.Append(rec); err != nil {
					if msg := err.Error(); msg != "wal: log is closed" && msg != "wal: log closed before commit" {
						t.Errorf("append: %v", err)
					}
					return
				}
				mu.Lock()
				acked = append(acked, rec)
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		err := l.Snapshot(func(emit func(Record) error) error {
			mu.Lock()
			defer mu.Unlock()
			for _, rec := range logged {
				if err := emit(rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	closeLog(t, l)
	wg.Wait()

	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	replayed := make(map[string]bool, len(got))
	for _, rec := range got {
		replayed[rec.Entity] = true
	}
	if len(acked) == 0 {
		t.Fatal("no append was acknowledged")
	}
	for _, rec := range acked {
		if !replayed[rec.Entity] {
			t.Fatalf("acknowledged %s lost across rotations", rec.Entity)
		}
	}
}

// TestPoisonedTailReleasesWaiters poisons the log (a later append could
// not rewind its torn tail) between an append and its commit wait. The
// waiting record is already in the file below the torn bytes, so the
// commit still covers it: the wait must acknowledge it, not leave it
// waiting for a Snapshot or Close.
func TestPoisonedTailReleasesWaiters(t *testing.T) {
	dir := t.TempDir()
	apply := func(Record) error { return nil }
	l, err := Open(dir, "ruzicka", apply, apply, WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	defer closeLog(t, l)
	wait, err := l.AppendBatchDeferred([]Record{addRec("e", Element{"x", 1})})
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.werr = errors.New("wal: planted torn tail")
	l.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append below the torn tail: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit wait still blocked 10s after the log was poisoned")
	}
}
