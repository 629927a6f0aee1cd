package mrfs

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/frame"
)

// segmentBytes encodes records the way SegmentWriter does — the shared
// internal/frame framing around codec payloads — for seeds.
func segmentBytes(recs []Record) []byte {
	var out []byte
	buf := codec.NewBuffer(128)
	for _, r := range recs {
		buf.Reset()
		buf.PutBytes(r.Key)
		buf.PutBytes(r.Sec)
		buf.PutBytes(r.Val)
		var err error
		if out, err = frame.Append(out, buf.Bytes()); err != nil {
			panic(err)
		}
	}
	return out
}

// FuzzSegmentRead feeds arbitrary bytes to the segment reader, as a span
// (off, n) clamped to the input. Corrupt frames — truncated payloads,
// oversized length prefixes, garbage inside a frame — must produce
// errors, never panics or giant allocations; the reader must consume
// nothing past its span; and whatever decodes before the corruption must
// round-trip exactly.
func FuzzSegmentRead(f *testing.F) {
	whole := func(data []byte) { f.Add(data, uint(0), uint(len(data))) }
	whole([]byte{})
	whole([]byte{0x00})
	whole([]byte{0x7f, 0x01})                                                 // frame length far past EOF
	whole([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // ~2^63 frame
	whole(segmentBytes([]Record{
		{Key: []byte("k1"), Sec: []byte("s"), Val: []byte("v1")},
		{Key: []byte("k2"), Val: []byte("v2")},
	}))
	// A valid record followed by a truncated one.
	good := segmentBytes([]Record{{Key: []byte("key"), Val: []byte("val")}})
	whole(append(append([]byte{}, good...), good[:len(good)-2]...))
	// The middle run of three, read as its own span.
	middle := segmentBytes([]Record{{Key: []byte("mid"), Sec: []byte("s"), Val: []byte("dle")}})
	f.Add(slices.Concat(good, middle, good), uint(len(good)), uint(len(middle)))

	f.Fuzz(func(t *testing.T, data []byte, off, n uint) {
		off = min(off, uint(len(data)))
		n = min(n, uint(len(data))-off)
		r := NewSegmentReader(bytes.NewReader(data), int64(off), int64(n))
		var consumed int64
		for i := 0; ; i++ {
			rec, ok, err := r.Next()
			if err != nil {
				return // corrupt input must end in an error, which is fine
			}
			if !ok {
				// Clean EOF: every byte must have been accounted for.
				if r.Bytes() > int64(n) {
					t.Fatalf("consumed %d of %d bytes", r.Bytes(), n)
				}
				return
			}
			if r.Bytes() <= consumed || r.Bytes() > int64(n) {
				t.Fatalf("record %d byte accounting: %d after %d of %d", i, r.Bytes(), consumed, n)
			}
			consumed = r.Bytes()
			// Accepted records must round-trip semantically: writing the
			// record back out and re-reading it yields the same fields.
			// (Byte identity with the input is not required — the decoder
			// tolerates non-minimal varints that re-encode shorter.)
			reenc := segmentBytes([]Record{rec})
			rec2, ok2, err2 := NewSegmentReader(bytes.NewReader(reenc), 0, int64(len(reenc))).Next()
			if err2 != nil || !ok2 ||
				!bytes.Equal(rec.Key, rec2.Key) || !bytes.Equal(rec.Sec, rec2.Sec) || !bytes.Equal(rec.Val, rec2.Val) {
				t.Fatalf("record %d does not round-trip: %v %v %v", i, rec2, ok2, err2)
			}
			if i > len(data) {
				t.Fatal("more records than input bytes")
			}
		}
	})
}

// TestSegmentReaderRejectsHugeFrame pins the MaxFrameLen guard directly.
func TestSegmentReaderRejectsHugeFrame(t *testing.T) {
	//lint:vsmart-allow framesafety hand-crafts a raw oversized length prefix to pin the segment reader's MaxFrameLen guard
	data := binary.AppendUvarint(nil, MaxFrameLen+1)
	r := NewSegmentReader(bytes.NewReader(data), 0, int64(len(data)))
	if _, ok, err := r.Next(); err == nil || ok {
		t.Fatalf("huge frame accepted: ok=%v err=%v", ok, err)
	}
}
