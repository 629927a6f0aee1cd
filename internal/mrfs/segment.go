package mrfs

import (
	"fmt"
	"io"
	"os"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

// Segment files hold one sorted run of records spilled by a map task for a
// single reduce partition. Each record is one internal/frame frame — a
// uvarint payload length, a CRC-32C, and the codec encoding of (key, sec,
// val) — the same framing the write-ahead log and snapshot files use, so
// segment sizes (and therefore the simulated spill I/O) track the framing
// the cost model charges for records at rest.

// MaxFrameLen caps a single record frame, re-exported from the shared
// framing layer: map-task spill records are tuples of at most a few
// kilobytes, far below the bound in any legitimate segment, so a larger
// length prefix can only come from a corrupt or truncated file.
const MaxFrameLen = frame.MaxFrameLen

// SegmentWriter streams records into a segment file.
type SegmentWriter struct {
	f   *os.File
	w   *frame.Writer
	buf *codec.Buffer

	records int64
}

// segmentBuffer returns the I/O buffer for a segment of size bytes: the
// segment's own size up to frame.DefaultBuffer. A map task under a small
// spill cap writes a few-kilobyte run per reduce partition per spill; a
// full-size buffer for each made BenchmarkShuffleSpill/spill-cap-4KiB
// allocate 540 MB to spill 288 KB.
func segmentBuffer(size int64) int { return int(min(size, frame.DefaultBuffer)) }

// CreateSegment opens a new segment file at path, truncating any previous
// contents. size is the number of file bytes the caller means to write, or
// a bound on it; it sizes the write buffer and nothing else.
func CreateSegment(path string, size int64) (*SegmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("mrfs: create segment: %w", err)
	}
	return &SegmentWriter{f: f, w: frame.NewWriterSize(f, segmentBuffer(size)), buf: codec.NewBuffer(256)}, nil
}

// Write appends one record to the segment. Callers are responsible for
// writing records in sorted order when the segment will be merged.
func (s *SegmentWriter) Write(r Record) error {
	s.buf.Reset()
	s.buf.PutBytes(r.Key)
	s.buf.PutBytes(r.Sec)
	s.buf.PutBytes(r.Val)
	if err := s.w.WriteFrame(s.buf.Bytes()); err != nil {
		return fmt.Errorf("mrfs: write segment: %w", err)
	}
	s.records++
	return nil
}

// Records reports the number of records written so far.
func (s *SegmentWriter) Records() int64 { return s.records }

// Bytes reports the number of file bytes written so far.
func (s *SegmentWriter) Bytes() int64 { return s.w.Bytes() }

// Close flushes and closes the segment file.
func (s *SegmentWriter) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("mrfs: flush segment: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("mrfs: close segment: %w", err)
	}
	return nil
}

// SegmentReader streams records back out of a segment file.
type SegmentReader struct {
	f    *os.File
	r    *frame.Reader
	dec  codec.Reader
	size int64
}

// OpenSegment opens a segment file for reading, with a read buffer no
// bigger than the file.
func OpenSegment(path string) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mrfs: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mrfs: open segment: %w", err)
	}
	return &SegmentReader{f: f, r: frame.NewReaderSize(f, segmentBuffer(fi.Size())), size: fi.Size()}, nil
}

// Size reports the segment file's size when it was opened.
func (s *SegmentReader) Size() int64 { return s.size }

// Next decodes the next record. It returns ok=false at a clean end of
// file; the returned record is a view of the reader's buffer, valid until
// the next call to Next. Corruption — an oversized or truncated frame, a
// checksum mismatch, a malformed payload, or trailing garbage inside a
// frame — is an error, never a panic.
func (s *SegmentReader) Next() (Record, bool, error) {
	payload, err := s.r.Next()
	if err == io.EOF {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, fmt.Errorf("mrfs: read segment: %w", err)
	}
	dec := &s.dec
	dec.Reset(payload)
	rec := Record{Key: dec.Bytes(), Sec: dec.Bytes(), Val: dec.Bytes()}
	if dec.Err() != nil {
		return Record{}, false, fmt.Errorf("mrfs: read segment: %w", dec.Err())
	}
	if !dec.Done() {
		return Record{}, false, fmt.Errorf("mrfs: read segment: %d trailing bytes in frame", dec.Remaining())
	}
	return rec, true, nil
}

// Bytes reports the number of file bytes consumed so far.
func (s *SegmentReader) Bytes() int64 { return s.r.Bytes() }

// Close closes the underlying file.
func (s *SegmentReader) Close() error { return s.f.Close() }
