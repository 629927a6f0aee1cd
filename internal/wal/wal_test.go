package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

func addRec(entity string, elems ...Element) Record {
	return Record{Op: OpAdd, Entity: entity, Elements: elems}
}

func removeRec(entity string) Record { return Record{Op: OpRemove, Entity: entity} }

// collect reopens dir and returns every replayed record — snapshot body
// and WAL tail alike — in order.
func collect(t *testing.T, dir, measure string) ([]Record, *Log) {
	t.Helper()
	var got []Record
	apply := func(rec Record) error {
		got = append(got, rec)
		return nil
	}
	l, err := Open(dir, measure, apply, apply)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return got, l
}

// closeLog closes l and fails the test on error: Close syncs and a
// discarded Close error can hide a lost tail.
func closeLog(t testing.TB, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		addRec("ip-1", Element{"a", 3}, Element{"b", 1}),
		addRec("ip-2", Element{"", 2}), // empty string is a legal element name
		removeRec("ip-1"),
		addRec("ip-1", Element{"c", 7}),
	}
	_, l := collect(t, dir, "ruzicka")
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestAppendAfterReopenWithoutClose(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "jaccard")
	if err := l.Append(addRec("a", Element{"x", 1})); err != nil {
		t.Fatal(err)
	}
	// Crash: the old log is abandoned, never closed. Appends reached the
	// OS synchronously, so a reopen must see them.
	got, l2 := collect(t, dir, "jaccard")
	if len(got) != 1 || got[0].Entity != "a" {
		t.Fatalf("after crash: %+v", got)
	}
	if err := l2.Append(removeRec("a")); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l2)
	got, l3 := collect(t, dir, "jaccard")
	defer closeLog(t, l3)
	if len(got) != 2 || got[1].Op != OpRemove {
		t.Fatalf("after second crash: %+v", got)
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	for _, rec := range []Record{
		addRec("a", Element{"x", 1}),
		addRec("b", Element{"y", 2}),
		removeRec("a"),
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the surviving state (just "b"), then log one more record.
	state := []Record{addRec("b", Element{"y", 2})}
	if err := l.Snapshot(func(emit func(Record) error) error {
		for _, rec := range state {
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := l.Gen(); got != 2 {
		t.Fatalf("gen after snapshot: %d", got)
	}
	if err := l.Append(addRec("c", Element{"z", 3})); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)

	// Only the new generation's files remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "snap-00000002" || names[1] != "wal-00000002" {
		t.Fatalf("dir contents: %v", names)
	}

	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	want := append(append([]Record{}, state...), addRec("c", Element{"z", 3}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after rotation:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestTornTail simulates a crash mid-append: a partial frame at the end
// of the WAL must be dropped and truncated, and the log must keep
// accepting appends afterwards.
func TestTornTail(t *testing.T) {
	for name, tear := range map[string][]byte{
		// Length prefix only, payload never written.
		//lint:vsmart-allow framesafety hand-crafts a torn frame header to test recovery truncation
		"header-only": binary.AppendUvarint(nil, 57),
		// Full header claiming 64 bytes, then 5 bytes of payload.
		//lint:vsmart-allow framesafety hand-crafts a torn frame header to test recovery truncation
		"partial-payload": append(append(binary.AppendUvarint(nil, 64), 0xde, 0xad, 0xbe, 0xef), 1, 2, 3, 4, 5),
		// Intact frame shape but the checksum does not match the payload.
		"bad-checksum": func() []byte {
			//lint:vsmart-allow framesafety hand-crafts a checksum-mismatched frame to test recovery truncation
			b := binary.AppendUvarint(nil, 3)
			b = append(b, 0, 0, 0, 0) // wrong CRC for any payload
			return append(b, OpRemove, 1, 'x')
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, l := collect(t, dir, "ruzicka")
			if err := l.Append(addRec("keep", Element{"k", 1})); err != nil {
				t.Fatal(err)
			}
			// Crash: append raw torn bytes directly to the live WAL file.
			walPath := filepath.Join(dir, walName(1))
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear); err != nil {
				t.Fatal(err)
			}
			f.Close()

			got, l2 := collect(t, dir, "ruzicka")
			if len(got) != 1 || got[0].Entity != "keep" {
				t.Fatalf("recovered %+v", got)
			}
			if err := l2.Append(addRec("after", Element{"a", 2})); err != nil {
				t.Fatal(err)
			}
			closeLog(t, l2)

			got, l3 := collect(t, dir, "ruzicka")
			defer closeLog(t, l3)
			if len(got) != 2 || got[1].Entity != "after" {
				t.Fatalf("after torn-tail truncation: %+v", got)
			}
		})
	}
}

// TestInterruptedSnapshot leaves a .tmp snapshot behind (crash before
// the rename): recovery must ignore and remove it.
func TestInterruptedSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	if err := l.Append(addRec("a", Element{"x", 1})); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	tmp := filepath.Join(dir, snapName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if len(got) != 1 || got[0].Entity != "a" {
		t.Fatalf("recovered %+v", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived: %v", err)
	}
}

// TestCorruptSnapshotIsHardError: damage under the final snapshot name
// cannot be a routine crash, so Open must refuse rather than silently
// serve a partial dataset.
func TestCorruptSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	if err := l.Append(addRec("a", Element{"x", 1})); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(func(emit func(Record) error) error {
		return emit(addRec("a", Element{"x", 1}))
	}); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)

	path := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] }, // loses the trailer
		"flipped-byte": func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)/2] ^= 0xff; return c },
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			nop := func(Record) error { return nil }
			_, err := Open(dir, "ruzicka", nop, nop)
			if err == nil {
				t.Fatal("corrupt snapshot should fail Open")
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMeasureMismatch(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	if err := l.Append(addRec("a", Element{"x", 1})); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(func(emit func(Record) error) error {
		return emit(addRec("a", Element{"x", 1}))
	}); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	nop := func(Record) error { return nil }
	_, err := Open(dir, "jaccard", nop, nop)
	if err == nil || !strings.Contains(err.Error(), "measure") {
		t.Fatalf("measure mismatch should fail: %v", err)
	}
}

// TestOversizedFrameLength: a length prefix past MaxFrameLen in the WAL
// is corruption and must truncate cleanly, never allocate gigabytes.
func TestOversizedFrameLength(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	if err := l.Append(addRec("keep", Element{"k", 1})); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	//lint:vsmart-allow framesafety test corrupts the live WAL in place to prove recovery rejects oversized prefixes
	f, err := os.OpenFile(filepath.Join(dir, walName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	//lint:vsmart-allow framesafety writes a raw oversized length prefix to pin the MaxFrameLen recovery guard
	f.Write(binary.AppendUvarint(nil, MaxFrameLen+1))
	f.Close()
	got, l2 := collect(t, dir, "ruzicka")
	defer closeLog(t, l2)
	if len(got) != 1 || got[0].Entity != "keep" {
		t.Fatalf("recovered %+v", got)
	}
}

func TestAppendRejectsBadOp(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	defer closeLog(t, l)
	if err := l.Append(Record{Op: 99, Entity: "x"}); err == nil {
		t.Fatal("unknown op should fail to encode")
	}
	if err := l.Snapshot(func(emit func(Record) error) error {
		return emit(removeRec("x"))
	}); err == nil {
		t.Fatal("snapshot must reject non-Add records")
	}
	// The failed snapshot must leave the log usable at its old generation.
	if got := l.Gen(); got != 1 {
		t.Fatalf("gen after failed snapshot: %d", got)
	}
	if err := l.Append(addRec("y", Element{"e", 1})); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLog(t *testing.T) {
	dir := t.TempDir()
	_, l := collect(t, dir, "ruzicka")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := l.Append(addRec("x")); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := l.Snapshot(func(func(Record) error) error { return nil }); err == nil {
		t.Fatal("snapshot after close should fail")
	}
}

// TestSnapshotHeader pins what a directory says about the index in it:
// Exists is "holds a snapshot", a snapshot's header is the v3 one —
// magic, measure, and a shard count written as 1 — and the retired
// per-shard layout is refused by Exists and Open alike instead of
// reading as empty.
func TestSnapshotHeader(t *testing.T) {
	dir := t.TempDir()
	if ok, err := Exists(filepath.Join(dir, "absent")); ok || err != nil {
		t.Fatalf("missing dir: %v %v", ok, err)
	}
	_, l := collect(t, dir, "ruzicka")
	if err := l.Append(addRec("a", Element{"x", 1})); err != nil {
		t.Fatal(err)
	}
	if ok, err := Exists(dir); ok || err != nil {
		t.Fatalf("a WAL without a snapshot: %v %v", ok, err)
	}
	if err := l.Snapshot(func(emit func(Record) error) error { return emit(addRec("a", Element{"x", 1})) }); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	if ok, err := Exists(dir); !ok || err != nil {
		t.Fatalf("after a snapshot: %v %v", ok, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	header, _, ok := frame.Parse(data, 0)
	if !ok {
		t.Fatal("no header frame")
	}
	r := codec.NewReader(header)
	if magic, measure, shards := r.String(), r.String(), r.Uvarint(); magic != snapMagic || measure != "ruzicka" || shards != 1 || !r.Done() {
		t.Fatalf("header %q %q %d (done %v), want %q \"ruzicka\" 1", magic, measure, shards, r.Done(), snapMagic)
	}

	perShard := t.TempDir()
	if err := os.Mkdir(filepath.Join(perShard, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Exists(perShard); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("Exists on the per-shard layout: %v", err)
	}
	nop := func(Record) error { return nil }
	if _, err := Open(perShard, "ruzicka", nop, nop); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("Open on the per-shard layout: %v", err)
	}
}

// TestSizes: Sizes reports the current generation's WAL and snapshot
// bytes as they stand on disk — after Open of a written snapshot, after
// appends, after a rotation, and after a reopen that replays a log.
func TestSizes(t *testing.T) {
	dir := t.TempDir()
	state := func(emit func(Record) error) error {
		return emit(addRec("b", Element{"y", 2}, Element{"z", 9}))
	}
	if err := WriteSnapshot(dir, 1, "ruzicka", state); err != nil {
		t.Fatal(err)
	}
	onDisk := func(name string) int64 {
		t.Helper()
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	check := func(tag string, l *Log) {
		t.Helper()
		w, s := l.Sizes()
		if wantW, wantS := onDisk(walName(l.Gen())), onDisk(snapName(l.Gen())); w != wantW || s != wantS {
			t.Fatalf("%s: Sizes() = %d, %d; files hold %d, %d", tag, w, s, wantW, wantS)
		}
	}
	_, l := collect(t, dir, "ruzicka")
	check("opened", l)
	if w, _ := l.Sizes(); w != 0 {
		t.Fatalf("opened: WAL %d bytes, want 0", w)
	}
	for _, rec := range []Record{addRec("a", Element{"x", 1}), removeRec("b")} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		check("appended", l)
	}
	if err := l.Snapshot(func(emit func(Record) error) error {
		return emit(addRec("a", Element{"x", 1}))
	}); err != nil {
		t.Fatal(err)
	}
	check("rotated", l)
	if err := l.Append(addRec("c", Element{"w", 4})); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	_, l = collect(t, dir, "ruzicka")
	defer closeLog(t, l)
	check("reopened", l)
	if w, _ := l.Sizes(); w == 0 {
		t.Fatal("reopened: replayed WAL reports 0 bytes")
	}
}
