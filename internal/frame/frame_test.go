package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{},
		[]byte("a longer payload with some bytes in it"),
		{0x00, 0xff, 0x7f},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range payloads {
		if err := w.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("writer counted %d bytes, file has %d", w.Bytes(), buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
	if r.Bytes() != int64(buf.Len()) {
		t.Fatalf("reader counted %d bytes, file has %d", r.Bytes(), buf.Len())
	}
}

func TestAppendParseRoundTrip(t *testing.T) {
	var data []byte
	var err error
	payloads := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, p := range payloads {
		if data, err = Append(data, p); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i, want := range payloads {
		got, next, ok := Parse(data, off)
		if !ok {
			t.Fatalf("frame %d not intact", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
		off = next
	}
	if off != len(data) {
		t.Fatalf("parsed %d of %d bytes", off, len(data))
	}
}

// TestStreamMatchesAppend pins that the two access styles produce and
// accept the identical byte format.
func TestStreamMatchesAppend(t *testing.T) {
	payload := []byte("cross-check")
	appended, err := Append(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended, buf.Bytes()) {
		t.Fatalf("Append wrote % x, Writer wrote % x", appended, buf.Bytes())
	}
	got, _, ok := Parse(buf.Bytes(), 0)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Parse of Writer output: ok=%v got %q", ok, got)
	}
}

func TestOversizedRejected(t *testing.T) {
	big := make([]byte, MaxFrameLen+1)
	if _, err := Append(nil, big); err == nil {
		t.Fatal("Append accepted an oversized payload")
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteFrame(big); err == nil {
		t.Fatal("WriteFrame accepted an oversized payload")
	}
	// An oversized length prefix on the read side must error without
	// allocating the claimed size.
	data := binary.AppendUvarint(nil, MaxFrameLen+1)
	if _, err := NewReader(bytes.NewReader(data)).Next(); err == nil {
		t.Fatal("Reader accepted an oversized length prefix")
	}
	if _, _, ok := Parse(data, 0); ok {
		t.Fatal("Parse accepted an oversized length prefix")
	}
}

// TestReaderGrowsWithInput: a length prefix claiming the cap, followed
// by a few bytes, costs the reader about what arrived, not the claim;
// a large frame that does arrive reads back whole, after one that was
// smaller.
func TestReaderGrowsWithInput(t *testing.T) {
	claim := binary.AppendUvarint(nil, MaxFrameLen)
	claim = append(claim, make([]byte, headerLen+10)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(claim)).Next()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte claim with 10 bytes behind it allocated %d bytes", MaxFrameLen, got)
	}

	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB: several grows
	data := mustAppend(t, nil, "small")
	data = mustAppend(t, data, string(big))
	r := NewReader(bytes.NewReader(data))
	for _, want := range [][]byte{[]byte("small"), big} {
		got, err := r.Next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes (%v), want %d", len(got), err, len(want))
		}
	}
}

func TestReaderCorruption(t *testing.T) {
	good, err := Append(nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"torn-header":  good[:1],
		"torn-payload": good[:len(good)-2],
		"bad-crc": func() []byte {
			c := append([]byte{}, good...)
			c[2] ^= 0xff // inside the CRC bytes
			return c
		}(),
		"flipped-payload": func() []byte {
			c := append([]byte{}, good...)
			c[len(c)-1] ^= 0xff
			return c
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewReader(bytes.NewReader(data)).Next(); err == nil || err == io.EOF {
				t.Fatalf("corrupt frame accepted: %v", err)
			}
			if _, _, ok := Parse(data, 0); ok {
				t.Fatal("Parse accepted a corrupt frame")
			}
		})
	}
}

// mustAppend frames payload onto dst, failing the test on error — tests
// must not discard framing errors any more than production code may.
func mustAppend(t *testing.T, dst []byte, payload string) []byte {
	t.Helper()
	out, err := Append(dst, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func replayInto(t *testing.T, path string, fn func([]byte) error) [][]byte {
	t.Helper()
	var got [][]byte
	err := ReplayFile(path, func(p []byte) error {
		got = append(got, append([]byte{}, p...))
		if fn != nil {
			return fn(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestReplayFileTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := mustAppend(t, nil, "keep-1")
	data = mustAppend(t, data, "keep-2")
	intact := len(data)
	data = append(data, binary.AppendUvarint(nil, 40)...) // torn header
	data = append(data, 0xde, 0xad)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got := replayInto(t, path, nil)
	if len(got) != 2 || string(got[0]) != "keep-1" || string(got[1]) != "keep-2" {
		t.Fatalf("replayed %q", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(intact) {
		t.Fatalf("file truncated to %d, want %d", st.Size(), intact)
	}
	// Idempotent: a second replay sees the same records and no tail.
	if got = replayInto(t, path, nil); len(got) != 2 {
		t.Fatalf("second replay: %q", got)
	}
}

func TestReplayFileErrTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := mustAppend(t, nil, "good")
	data = mustAppend(t, data, "undecodable")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	err := ReplayFile(path, func(p []byte) error {
		if string(p) == "undecodable" {
			return ErrTorn
		}
		n++
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
	// The rejected frame and everything after it must be gone.
	if got := replayInto(t, path, nil); len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("after ErrTorn truncation: %q", got)
	}
}

func TestReplayFileHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := mustAppend(t, nil, "x")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := ReplayFile(path, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("hard error not surfaced: %v", err)
	}
	// The file must be left untouched on a hard error.
	if got := replayInto(t, path, nil); len(got) != 1 {
		t.Fatalf("file mutated on hard error: %q", got)
	}
}

func TestReplayFileMissing(t *testing.T) {
	if err := ReplayFile(filepath.Join(t.TempDir(), "absent"), func([]byte) error {
		t.Fatal("callback on missing file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
