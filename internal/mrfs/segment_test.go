package mrfs

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.seg")
	recs := []Record{
		{Key: []byte("a"), Sec: []byte("s"), Val: []byte("v1")},
		{Key: []byte("a"), Val: []byte("v2")}, // nil Sec
		{Key: []byte("bb"), Sec: []byte(""), Val: nil},
		{Key: bytes.Repeat([]byte("k"), 300), Val: bytes.Repeat([]byte("x"), 1000)},
	}
	w, err := CreateSegment(path, 64) // a buffer smaller than the last record
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != int64(len(recs)) {
		t.Fatalf("writer records = %d, want %d", w.Records(), len(recs))
	}
	written := w.Bytes()
	if written <= 0 {
		t.Fatal("writer tracked no bytes")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range recs {
		got, ok, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("record %d: early EOF", i)
		}
		if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Sec, want.Sec) || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("record %d: got %q/%q/%q want %q/%q/%q",
				i, got.Key, got.Sec, got.Val, want.Key, want.Sec, want.Val)
		}
	}
	if _, ok, err := r.Next(); err != nil || ok {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
	if r.Bytes() != written {
		t.Fatalf("reader consumed %d bytes, writer wrote %d", r.Bytes(), written)
	}
}

func TestSegmentEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.seg")
	w, err := CreateSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Next(); err != nil || ok {
		t.Fatalf("empty segment: ok=%v err=%v", ok, err)
	}
}

func TestSegmentManyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "many.seg")
	w, err := CreateSegment(path, 1<<30) // a size past the cap gets the full buffer
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := w.Write(Record{
			Key: []byte(fmt.Sprintf("key-%06d", i)),
			Val: []byte(fmt.Sprintf("val-%d", i*i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		got, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("key-%06d", i); string(got.Key) != want {
			t.Fatalf("record %d: key %q want %q", i, got.Key, want)
		}
	}
	if _, ok, _ := r.Next(); ok {
		t.Fatal("trailing records")
	}
}

// TestSmallSegmentSmallBuffers: writing and reading back a segment of a
// hundred-odd bytes allocates buffers of about its size, not the 64 KiB a
// long stream gets — a spilling map task writes one such segment per
// reduce partition per spill.
func TestSmallSegmentSmallBuffers(t *testing.T) {
	if raceDetector {
		t.Skip("allocation figures under -race measure the detector")
	}
	path := filepath.Join(t.TempDir(), "small.seg")
	rec := Record{Key: []byte("key"), Val: bytes.Repeat([]byte("v"), 20)}
	cycle := func() {
		w, err := CreateSegment(path, 5*rec.Size())
		if err != nil {
			t.Fatal(err)
		}
		for range 5 {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Size() != w.Bytes() {
			t.Fatalf("reader sees %d bytes, writer wrote %d", r.Size(), w.Bytes())
		}
		for n := 0; ; n++ {
			_, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if n != 5 {
					t.Fatalf("read %d records, wrote 5", n)
				}
				break
			}
		}
	}
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const cycles = 20
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per > 8<<10 {
		t.Fatalf("a 5-record segment's write and read allocate %d bytes, want ≤ 8 KiB", per)
	}
}
