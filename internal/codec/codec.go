// Package codec implements the compact binary encodings used for every
// record that flows through the simulated MapReduce engine.
//
// All multi-byte integers are encoded as unsigned LEB128 varints (the same
// scheme as encoding/binary's Uvarint) so that record sizes — and therefore
// the simulated I/O and shuffle costs — reflect the information content of
// the data rather than fixed-width padding. Signed integers use zigzag
// encoding. Floats are encoded as fixed 8-byte IEEE 754 bits.
//
// A Buffer is an append-only encoder; a Reader is the matching decoder.
// Both are deliberately allocation-light: Buffer appends into a reusable
// byte slice and Reader is a value type that advances an offset.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when a Reader runs out of bytes mid-value.
var ErrTruncated = errors.New("codec: truncated input")

// ErrOverflow is returned when a varint does not fit the requested width.
var ErrOverflow = errors.New("codec: varint overflows")

// Buffer is an append-only encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Reset truncates the buffer for reuse without releasing its storage.
func (e *Buffer) Reset() { e.b = e.b[:0] }

// Len reports the number of encoded bytes.
func (e *Buffer) Len() int { return len(e.b) }

// Bytes returns the encoded bytes. The slice aliases the buffer's storage
// and is invalidated by the next mutating call.
func (e *Buffer) Bytes() []byte { return e.b }

// Clone returns a copy of the encoded bytes that survives Reset.
func (e *Buffer) Clone() []byte {
	out := make([]byte, len(e.b))
	copy(out, e.b)
	return out
}

// PutUvarint appends v as an unsigned varint.
func (e *Buffer) PutUvarint(v uint64) {
	//lint:vsmart-allow framesafety codec encodes varints inside frame payloads; the frame length prefix and checksum stay in internal/frame
	e.b = binary.AppendUvarint(e.b, v)
}

// PutUint32 appends v as a varint (convenience for multiplicities).
func (e *Buffer) PutUint32(v uint32) { e.PutUvarint(uint64(v)) }

// PutFloat64 appends v as 8 fixed bytes, little endian.
func (e *Buffer) PutFloat64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// PutByte appends a single raw byte.
func (e *Buffer) PutByte(v byte) { e.b = append(e.b, v) }

// PutBytes appends a length-prefixed byte string.
func (e *Buffer) PutBytes(v []byte) {
	e.PutUvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// PutString appends a length-prefixed string.
func (e *Buffer) PutString(v string) {
	e.PutUvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// PutRaw appends v verbatim with no length prefix.
func (e *Buffer) PutRaw(v []byte) { e.b = append(e.b, v...) }

// Reader decodes values appended by a Buffer, in the same order.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset repoints the reader at b and clears any error.
func (r *Reader) Reset(b []byte) {
	r.b = b
	r.off = 0
	r.err = nil
}

// Err returns the first decode error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done reports whether the reader is exhausted without error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.b) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Uint32 decodes a varint and narrows it to uint32.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("%w: %d does not fit uint32", ErrOverflow, v))
		return 0
	}
	return uint32(v)
}

// Float64 decodes 8 fixed bytes into a float64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Byte decodes a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bytes decodes a length-prefixed byte string. The returned slice aliases
// the reader's backing array.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrTruncated)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

// String decodes a length-prefixed string (copies the bytes).
func (r *Reader) String() string { return string(r.Bytes()) }
