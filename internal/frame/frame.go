// Package frame is the one length-prefixed, checksummed record framing
// shared by every durable file in the system: MapReduce shuffle-spill
// segments (internal/mrfs), and write-ahead logs and snapshots
// (internal/wal), bulk-built index generations included.
//
// A frame is a uvarint payload length, a fixed 4-byte CRC-32C
// (Castagnoli) of the payload, and the payload bytes. Lengths are capped
// at MaxFrameLen so a corrupt prefix fails cleanly instead of driving a
// giant allocation; writers enforce the same cap so no reader-rejected
// file can ever be produced.
//
// Two access styles cover the two kinds of caller. Writer/Reader stream
// frames through buffered file I/O for sequential producers and
// consumers (spill segments). Append/Parse work over in-memory byte
// slices for callers that need offset-level control (the WAL's
// append-rewind bookkeeping and snapshot loading). ReplayFile is the one
// torn-tail recovery routine: it feeds every intact leading frame of a
// log file to a callback and truncates the file at the first torn or
// corrupt frame — the expected shape of a crash mid-append.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// MaxFrameLen caps a single frame payload. Legitimate records everywhere
// in the system — spill tuples, WAL mutations, snapshot entities — are a
// few kilobytes, far below this bound, so a larger length prefix can
// only come from a corrupt or truncated file.
const MaxFrameLen = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the fixed checksum width; the length prefix is variable.
const headerLen = 4

// Append frames payload onto dst: uvarint length, CRC-32C, bytes.
func Append(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrameLen {
		return dst, fmt.Errorf("frame: payload %d exceeds %d", len(payload), MaxFrameLen)
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

// Parse reads one frame from data at off. It returns the payload (an
// alias into data), the offset just past the frame, and whether the
// frame was intact; a torn, oversized, or checksum-failing frame reports
// ok=false, never an error or a panic.
func Parse(data []byte, off int) (payload []byte, next int, ok bool) {
	n, w := binary.Uvarint(data[off:])
	if w <= 0 || n > MaxFrameLen {
		return nil, off, false
	}
	off += w
	if len(data)-off < headerLen+int(n) {
		return nil, off, false
	}
	want := binary.LittleEndian.Uint32(data[off:])
	payload = data[off+headerLen : off+headerLen+int(n)]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, off, false
	}
	return payload, off + headerLen + int(n), true
}

// Writer streams frames into an io.Writer through a buffer. Call Flush
// before syncing or closing the underlying file.
type Writer struct {
	w     *bufio.Writer
	hdr   [binary.MaxVarintLen64 + headerLen]byte
	bytes int64
}

// DefaultBuffer is the buffer NewWriter and NewReader give a stream.
const DefaultBuffer = 64 << 10

// minBuffer is the smallest buffer a sized constructor gives: bufio's own
// floor for a reader.
const minBuffer = 16

// NewWriter returns a Writer over w with a DefaultBuffer-byte buffer.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, DefaultBuffer) }

// NewWriterSize returns a Writer over w whose buffer holds size bytes (at
// least 16): a stream known to be short gets a buffer no bigger than
// itself.
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, max(size, minBuffer))}
}

// WriteFrame appends one frame. The payload is fully buffered or
// written by the time WriteFrame returns; partial frames can only be
// left behind by a failed Flush.
func (w *Writer) WriteFrame(payload []byte) error {
	if len(payload) > MaxFrameLen {
		return fmt.Errorf("frame: payload %d exceeds %d", len(payload), MaxFrameLen)
	}
	hdr := binary.AppendUvarint(w.hdr[:0], uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, castagnoli))
	if _, err := w.w.Write(hdr); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	w.bytes += int64(len(hdr) + len(payload))
	return nil
}

// Bytes reports the total file bytes framed so far (headers included).
func (w *Writer) Bytes() int64 { return w.bytes }

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams frames back out of an io.Reader. Corruption — an
// oversized or truncated frame, a checksum mismatch — is an error,
// never a panic; a clean end of input is io.EOF.
type Reader struct {
	r     *bufio.Reader
	cr    countingByteReader
	buf   []byte // the payload returned by the last Next, reused by the following one
	bytes int64
}

// NewReader returns a Reader over r with a DefaultBuffer-byte buffer.
func NewReader(r io.Reader) *Reader { return NewReaderSize(r, DefaultBuffer) }

// NewReaderSize returns a Reader over r whose buffer holds size bytes (at
// least 16). As with bufio, an r that is already a *bufio.Reader at
// least that big is read directly.
func NewReaderSize(r io.Reader, size int) *Reader {
	rd := &Reader{r: bufio.NewReaderSize(r, max(size, minBuffer))}
	rd.cr.r = rd.r
	return rd
}

// Next decodes the next frame and returns its payload: a view of the
// reader's one payload buffer, valid until the next call to Next (copy
// what must outlive it). At a clean end of input it returns io.EOF; an
// EOF mid-frame is corruption and reported as such.
func (r *Reader) Next() ([]byte, error) {
	r.cr.n = 0
	n, err := binary.ReadUvarint(&r.cr)
	if err == io.EOF && r.cr.n == 0 {
		return nil, io.EOF // clean end; a mid-varint EOF arrives as ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("frame: read length: %w", err)
	}
	if n > MaxFrameLen {
		return nil, fmt.Errorf("frame: corrupt length %d exceeds %d", n, MaxFrameLen)
	}
	var crc [headerLen]byte
	if _, err := io.ReadFull(r.r, crc[:]); err != nil {
		return nil, fmt.Errorf("frame: truncated checksum: %w", err)
	}
	// The buffer grows with the bytes that arrive, at most doubling, so a
	// length prefix alone cannot make the reader allocate what the input
	// never sends.
	payload := r.buf[:0]
	for uint64(len(payload)) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, int(min(n-uint64(len(payload)), uint64(max(len(payload), 1<<16)))))
			r.buf = payload
		}
		m, err := io.ReadFull(r.r, payload[len(payload):min(uint64(cap(payload)), n)])
		payload = payload[:len(payload)+m]
		if err != nil {
			return nil, fmt.Errorf("frame: truncated payload: %w", err)
		}
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(crc[:]) {
		return nil, errors.New("frame: checksum mismatch")
	}
	r.bytes += int64(r.cr.n) + headerLen + int64(n)
	return payload, nil
}

// Bytes reports the file bytes consumed by successfully decoded frames.
func (r *Reader) Bytes() int64 { return r.bytes }

// countingByteReader counts the bytes ReadUvarint consumes, so Bytes
// stays exact even on non-minimally encoded (i.e. corrupt) prefixes.
type countingByteReader struct {
	r io.ByteReader
	n int
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// ErrTorn, returned by a ReplayFile callback, marks the current frame as
// the log's torn tail: replay stops, the file is truncated just before
// the frame, and ReplayFile reports success. Callers use it when a frame
// is structurally intact (the checksum matches) but its payload does not
// decode — a half-written record flushed around a crash.
var ErrTorn = errors.New("frame: torn record")

// ReplayFile feeds every intact leading frame of the file at path to fn
// in order, then truncates the file after the last accepted frame if
// anything — a torn frame, a checksum failure, or fn returning ErrTorn —
// cut the replay short. A missing file replays nothing. Any other error
// from fn aborts the replay and is returned; the file is not truncated.
func ReplayFile(path string, fn func(payload []byte) error) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("frame: %w", err)
	}
	good := 0
	for good < len(data) {
		payload, next, ok := Parse(data, good)
		if !ok {
			break
		}
		if err := fn(payload); err != nil {
			if errors.Is(err, ErrTorn) {
				break
			}
			return err
		}
		good = next
	}
	if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("frame: truncate torn tail: %w", err)
		}
	}
	return nil
}
