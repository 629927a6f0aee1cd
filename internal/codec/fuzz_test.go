package codec

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReaderDecode drives a Reader over arbitrary bytes with a fixed
// decode schema. Corrupt input must surface through Err(), never panic,
// and a reader that errored must keep returning zero values.
func FuzzReaderDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // max uvarint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // overflowing uvarint
	f.Add([]byte{0x05, 'h', 'e', 'l', 'l', 'o', 1, 2, 3, 4, 5, 6, 7, 8})
	seed := NewBuffer(64)
	seed.PutUvarint(300)
	seed.PutUint32(42)
	seed.PutFloat64(3.5)
	seed.PutBytes([]byte("payload"))
	seed.PutString("tail")
	f.Add(seed.Clone())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Uvarint()
		_ = r.Uint32()
		_ = r.Float64()
		b := r.Bytes()
		_ = r.String()
		_ = r.Byte()
		if r.Err() != nil {
			// Errored readers are sticky and must return zero values.
			if r.Uvarint() != 0 || r.Bytes() != nil || r.Byte() != 0 {
				t.Fatal("errored reader returned data")
			}
			return
		}
		if b == nil {
			// A successful Bytes() of length 0 returns an empty non-nil
			// slice view only when bytes remain; nil means it decoded a
			// zero-length string, which is fine. Nothing to assert.
			_ = b
		}
		if r.Remaining() < 0 {
			t.Fatalf("negative remaining: %d", r.Remaining())
		}
	})
}

// FuzzRoundTrip checks encode→decode identity for values carved out of the
// fuzz input, so the encoder and decoder can never drift apart.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint32(0), 0.0, []byte(nil))
	f.Add(uint64(math.MaxUint64), uint32(math.MaxUint32), math.Inf(-1), []byte("x"))
	f.Add(uint64(127), uint32(300), math.NaN(), bytes.Repeat([]byte{0xab}, 300))

	f.Fuzz(func(t *testing.T, u uint64, w uint32, fl float64, raw []byte) {
		var b Buffer
		b.PutUvarint(u)
		b.PutUint32(w)
		b.PutFloat64(fl)
		b.PutBytes(raw)

		r := NewReader(b.Bytes())
		if got := r.Uvarint(); got != u {
			t.Fatalf("uvarint: %d != %d", got, u)
		}
		if got := r.Uint32(); got != w {
			t.Fatalf("uint32: %d != %d", got, w)
		}
		if got := r.Float64(); math.Float64bits(got) != math.Float64bits(fl) {
			t.Fatalf("float64: %v != %v", got, fl)
		}
		if got := r.Bytes(); !bytes.Equal(got, raw) {
			t.Fatalf("bytes: %x != %x", got, raw)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
		if !r.Done() {
			t.Fatalf("trailing bytes: %d", r.Remaining())
		}
	})
}
