package mrfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

func TestSegmentRoundTrip(t *testing.T) {
	var file bytes.Buffer
	recs := []Record{
		{Key: []byte("a"), Sec: []byte("s"), Val: []byte("v1")},
		{Key: []byte("a"), Val: []byte("v2")}, // nil Sec
		{Key: []byte("bb"), Sec: []byte(""), Val: nil},
		{Key: bytes.Repeat([]byte("k"), 300), Val: bytes.Repeat([]byte("x"), 1000)},
	}
	w := NewSegmentWriter(&file, 64) // a buffer smaller than the last record
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	written := w.Bytes()
	if written <= 0 {
		t.Fatal("writer tracked no bytes")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if int64(file.Len()) != written {
		t.Fatalf("writer counted %d bytes, flushed %d", written, file.Len())
	}

	r := NewSegmentReader(bytes.NewReader(file.Bytes()), 0, written)
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

// TestSegmentReadsOnlyItsRange: two runs written back to back share one
// buffer, and a reader given a span sees only that span's bytes. A span
// cut 2 bytes short of the first run's end ends in a truncated frame; it
// must not read on into the second run.
func TestSegmentReadsOnlyItsRange(t *testing.T) {
	var file bytes.Buffer
	w := NewSegmentWriter(&file, 0)
	var ends []int64
	for _, run := range []string{"first", "second"} {
		for i := range 3 {
			if err := w.Write(Record{Key: []byte(fmt.Sprintf("%s-%d", run, i)), Val: []byte("value")}); err != nil {
				t.Fatal(err)
			}
		}
		ends = append(ends, w.Bytes())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	file.WriteString("garbage past the last run")
	read := func(off, n int64) (keys []string, err error) {
		r := NewSegmentReader(bytes.NewReader(file.Bytes()), off, n)
		for {
			rec, ok, err := r.Next()
			if err != nil || !ok {
				return keys, err
			}
			keys = append(keys, string(rec.Key))
		}
	}
	for i, span := range [][2]int64{{0, ends[0]}, {ends[0], ends[1] - ends[0]}} {
		keys, err := read(span[0], span[1])
		if err != nil || len(keys) != 3 {
			t.Fatalf("run %d: keys %q, err %v; want its 3 records and a clean end", i, keys, err)
		}
	}
	keys, err := read(0, ends[0]-2)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a span cut short ended with %v, want a truncated frame", err)
	}
	if want := []string{"first-0", "first-1"}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("a span cut short decoded %q, want %q", keys, want)
	}
}

func TestSegmentEmpty(t *testing.T) {
	w := NewSegmentWriter(io.Discard, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewSegmentReader(bytes.NewReader(nil), 0, w.Bytes())
	if _, ok, err := r.Next(); err != nil || ok {
		t.Fatalf("empty segment: ok=%v err=%v", ok, err)
	}
}

func TestSegmentManyRecords(t *testing.T) {
	var file bytes.Buffer
	w := NewSegmentWriter(&file, 1<<30) // a size past the cap gets the full buffer
	const n = 5000
	for i := 0; i < n; i++ {
		if err := w.Write(Record{
			Key: []byte(fmt.Sprintf("key-%06d", i)),
			Val: []byte(fmt.Sprintf("val-%d", i*i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewSegmentReader(bytes.NewReader(file.Bytes()), 0, w.Bytes())
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
// long stream gets — a merge reads a few-hundred-byte run per spill round
// of each map task, each through a reader of its own.
func TestSmallSegmentSmallBuffers(t *testing.T) {
	if raceDetector {
		t.Skip("allocation figures under -race measure the detector")
	}
	rec := Record{Key: []byte("key"), Val: bytes.Repeat([]byte("v"), 20)}
	var file bytes.Buffer
	file.Grow(1 << 10)
	cycle := func() {
		file.Reset()
		w := NewSegmentWriter(&file, 5*rec.Size())
		for range 5 {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if int64(file.Len()) != w.Bytes() {
			t.Fatalf("buffer holds %d bytes, writer wrote %d", file.Len(), w.Bytes())
		}
		r := NewSegmentReader(bytes.NewReader(file.Bytes()), 0, w.Bytes())
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
