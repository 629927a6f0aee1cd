package mrfs

import (
	"fmt"
	"io"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

// A segment is one sorted run of records spilled by a map task for a
// single reduce partition: a byte range of the task's spill file, which
// holds every run the task spills, back to back. Each record is one
// internal/frame frame — a uvarint payload length, a CRC-32C, and the
// codec encoding of (key, sec, val) — the same framing the write-ahead log
// and snapshot files use, so segment sizes (and therefore the simulated
// spill I/O) track the framing the cost model charges for records at rest.
// A segment has no header: the writer's byte count before and after a run
// is the run's range.

// MaxFrameLen caps a single record frame, re-exported from the shared
// framing layer: map-task spill records are tuples of at most a few
// kilobytes, far below the bound in any legitimate segment, so a larger
// length prefix can only come from a corrupt or truncated file.
const MaxFrameLen = frame.MaxFrameLen

// SegmentWriter frames records onto a writer, one segment after another.
type SegmentWriter struct {
	w   *frame.Writer
	buf *codec.Buffer
}

// segmentBuffer returns the I/O buffer for size bytes of segments: that
// size up to frame.DefaultBuffer. Under a small spill cap a map task's
// spill round writes a few kilobytes, and a merge reads runs of a few
// hundred bytes, one buffer per run; a full-size buffer for each made
// BenchmarkShuffleSpill/spill-cap-4KiB allocate 540 MB to spill 288 KB.
func segmentBuffer(size int64) int { return int(min(size, frame.DefaultBuffer)) }

// NewSegmentWriter returns a writer that frames records onto w. size is
// the number of bytes the caller means to write before each Flush, or a
// bound on it; it sizes the write buffer and nothing else.
func NewSegmentWriter(w io.Writer, size int64) *SegmentWriter {
	return &SegmentWriter{w: frame.NewWriterSize(w, segmentBuffer(size)), buf: codec.NewBuffer(256)}
}

// Write appends one record. Callers are responsible for writing records in
// sorted order when the segment will be merged.
func (s *SegmentWriter) Write(r Record) error {
	s.buf.Reset()
	s.buf.PutBytes(r.Key)
	s.buf.PutBytes(r.Sec)
	s.buf.PutBytes(r.Val)
	if err := s.w.WriteFrame(s.buf.Bytes()); err != nil {
		return fmt.Errorf("mrfs: write segment: %w", err)
	}
	return nil
}

// Bytes reports the number of bytes written so far, flushed or not: the
// offset at which the next segment starts.
func (s *SegmentWriter) Bytes() int64 { return s.w.Bytes() }

// Flush pushes the buffered records to the underlying writer.
func (s *SegmentWriter) Flush() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("mrfs: flush segment: %w", err)
	}
	return nil
}

// SegmentReader streams records back out of one segment.
type SegmentReader struct {
	r   *frame.Reader
	dec codec.Reader
}

// NewSegmentReader reads the segment that occupies the n bytes at off of
// r, with a read buffer no bigger than the segment. It reads through
// r.ReadAt alone, so several readers may share one file.
func NewSegmentReader(r io.ReaderAt, off, n int64) *SegmentReader {
	return &SegmentReader{r: frame.NewReaderSize(io.NewSectionReader(r, off, n), segmentBuffer(n))}
}

// Next decodes the next record. It returns ok=false at a clean end of the
// segment; the returned record is a view of the reader's buffer, valid
// until the next call to Next. Corruption — an oversized frame or one cut
// off by the segment's end, a checksum mismatch, a malformed payload, or
// trailing garbage inside a frame — is an error, never a panic.
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

// Bytes reports the number of segment bytes consumed so far.
func (s *SegmentReader) Bytes() int64 { return s.r.Bytes() }
