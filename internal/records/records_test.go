package records

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
)

// encoded runs one of the package's Put* encoders into a fresh buffer.
func encoded(put func(*codec.Buffer)) []byte {
	var b codec.Buffer
	put(&b)
	return b.Clone()
}

func EncodeRawKey(id multiset.ID) []byte {
	return encoded(func(b *codec.Buffer) { PutRawKey(b, id) })
}
func EncodeRawVal(e multiset.Entry) []byte {
	return encoded(func(b *codec.Buffer) { PutRawVal(b, e) })
}
func EncodePairKey(a, b multiset.ID) []byte {
	return encoded(func(buf *codec.Buffer) { PutPairKey(buf, a, b) })
}
func EncodePairVal(sim float64) []byte {
	return encoded(func(b *codec.Buffer) { PutPairVal(b, sim) })
}

func TestRawKeyRoundTrip(t *testing.T) {
	f := func(id uint64) bool {
		got, err := DecodeRawKey(EncodeRawKey(multiset.ID(id)))
		return err == nil && got == multiset.ID(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRawValRoundTrip(t *testing.T) {
	f := func(elem uint64, count uint32) bool {
		e := multiset.Entry{Elem: multiset.Elem(elem), Count: count}
		got, err := DecodeRawVal(EncodeRawVal(e))
		return err == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeRawKey(nil); err == nil {
		t.Fatal("empty key should fail")
	}
	if _, err := DecodeRawVal([]byte{0x80}); err == nil {
		t.Fatal("truncated val should fail")
	}
	if _, err := DecodePair(mrfs.Record{Key: []byte{1}, Val: nil}); err == nil {
		t.Fatal("bad pair should fail")
	}
}

func TestBuildAndDecodeInput(t *testing.T) {
	sets := []multiset.Multiset{
		multiset.New(3, []multiset.Entry{{Elem: 1, Count: 2}, {Elem: 5, Count: 1}}),
		multiset.New(1, []multiset.Entry{{Elem: 9, Count: 4}}),
	}
	d := BuildInput("in", sets, 3)
	if d.NumRecords() != 3 {
		t.Fatalf("records: %d", d.NumRecords())
	}
	back, err := DecodeInput(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID != 1 || back[1].ID != 3 {
		t.Fatalf("decode order: %v", back)
	}
	if !multiset.Equal(back[1], sets[0]) {
		t.Fatalf("roundtrip: %v vs %v", back[1], sets[0])
	}
}

func TestDecodeInputSumsDuplicates(t *testing.T) {
	d := mrfs.NewDataset("in", 1)
	d.Append(0, mrfs.Record{Key: EncodeRawKey(1), Val: EncodeRawVal(multiset.Entry{Elem: 7, Count: 2})})
	d.Append(0, mrfs.Record{Key: EncodeRawKey(1), Val: EncodeRawVal(multiset.Entry{Elem: 7, Count: 3})})
	back, err := DecodeInput(d)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Count(7) != 5 {
		t.Fatalf("duplicates not summed: %v", back)
	}
}

func TestPairRoundTripAndCanonical(t *testing.T) {
	rec := mrfs.Record{Key: EncodePairKey(9, 4), Val: EncodePairVal(0.75)}
	p, err := DecodePair(rec)
	if err != nil {
		t.Fatal(err)
	}
	if p.A != 9 || p.B != 4 || p.Sim != 0.75 {
		t.Fatalf("pair: %+v", p)
	}
	c := p.Canonical()
	if c.A != 4 || c.B != 9 {
		t.Fatalf("canonical: %+v", c)
	}
}

func TestDecodePairsSorts(t *testing.T) {
	d := mrfs.NewDataset("pairs", 2)
	d.Append(1, mrfs.Record{Key: EncodePairKey(5, 2), Val: EncodePairVal(0.9)})
	d.Append(0, mrfs.Record{Key: EncodePairKey(1, 3), Val: EncodePairVal(0.8)})
	ps, err := DecodePairs(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].A != 1 || ps[1].A != 2 {
		t.Fatalf("sorted pairs: %v", ps)
	}
}

func TestSamePairs(t *testing.T) {
	a := []Pair{{A: 1, B: 2, Sim: 0.5}, {A: 3, B: 4, Sim: 0.9}}
	b := []Pair{{A: 1, B: 2, Sim: 0.5 + 1e-12}, {A: 3, B: 4, Sim: 0.9}}
	if !SamePairs(a, b, 1e-9) {
		t.Fatal("should match within eps")
	}
	c := []Pair{{A: 1, B: 2, Sim: 0.5}, {A: 3, B: 5, Sim: 0.9}}
	if SamePairs(a, c, 1e-9) {
		t.Fatal("ids differ")
	}
	d := []Pair{{A: 1, B: 2, Sim: 0.7}, {A: 3, B: 4, Sim: 0.9}}
	if SamePairs(a, d, 1e-9) {
		t.Fatal("sims differ")
	}
	if SamePairs(a, a[:1], 1e-9) {
		t.Fatal("lengths differ")
	}
}

func TestSortPairsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := make([]Pair, 100)
	for i := range ps {
		ps[i] = Pair{A: multiset.ID(rng.Intn(10)), B: multiset.ID(rng.Intn(10))}
	}
	q := make([]Pair, len(ps))
	copy(q, ps)
	SortPairs(ps)
	SortPairs(q)
	for i := range ps {
		if ps[i] != q[i] {
			t.Fatal("sort not deterministic")
		}
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].A > ps[i].A || (ps[i-1].A == ps[i].A && ps[i-1].B > ps[i].B) {
			t.Fatal("not sorted")
		}
	}
}
