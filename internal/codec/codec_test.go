package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 255, 256, 1 << 14, 1<<14 - 1, 1 << 35, math.MaxUint64}
	var b Buffer
	for _, v := range vals {
		b.PutUvarint(v)
	}
	r := NewReader(b.Bytes())
	for i, want := range vals {
		if got := r.Uvarint(); got != want {
			t.Fatalf("value %d: got %d want %d", i, got, want)
		}
	}
	if !r.Done() {
		t.Fatalf("reader not exhausted: remaining=%d err=%v", r.Remaining(), r.Err())
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(u uint64, f64 float64, s string, raw []byte) bool {
		var b Buffer
		b.PutUvarint(u)
		b.PutFloat64(f64)
		b.PutString(s)
		b.PutBytes(raw)
		r := NewReader(b.Bytes())
		gu := r.Uvarint()
		gf := r.Float64()
		gs := r.String()
		gb := r.Bytes()
		if r.Err() != nil || !r.Done() {
			return false
		}
		sameF := gf == f64 || (math.IsNaN(gf) && math.IsNaN(f64))
		return gu == u && sameF && gs == s && bytes.Equal(gb, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint32Overflow(t *testing.T) {
	var b Buffer
	b.PutUvarint(uint64(math.MaxUint32) + 1)
	r := NewReader(b.Bytes())
	_ = r.Uint32()
	if r.Err() == nil {
		t.Fatal("expected overflow error")
	}
}

func TestTruncatedErrors(t *testing.T) {
	var b Buffer
	b.PutString("hello world")
	full := b.Clone()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestTruncatedFloatAndByte(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.Float64()
	if r.Err() != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", r.Err())
	}
	r2 := NewReader(nil)
	_ = r2.Byte()
	if r2.Err() != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", r2.Err())
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = r.Uvarint()
	_ = r.Float64()
	if r.Err() != first {
		t.Fatal("error should be sticky")
	}
}

func TestBufferReset(t *testing.T) {
	var b Buffer
	b.PutUvarint(42)
	n := b.Len()
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	b.PutUvarint(42)
	if b.Len() != n {
		t.Fatal("reset changed encoding")
	}
}

func TestReaderReset(t *testing.T) {
	var b Buffer
	b.PutUvarint(7)
	r := NewReader(nil)
	_ = r.Uvarint() // force error
	r.Reset(b.Bytes())
	if r.Err() != nil {
		t.Fatal("Reset should clear error")
	}
	if got := r.Uvarint(); got != 7 {
		t.Fatalf("got %d want 7", got)
	}
}

func TestPutRawNoPrefix(t *testing.T) {
	var b Buffer
	b.PutRaw([]byte{0xAA, 0xBB})
	if !bytes.Equal(b.Bytes(), []byte{0xAA, 0xBB}) {
		t.Fatalf("raw bytes mangled: %x", b.Bytes())
	}
}
