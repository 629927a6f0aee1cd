package mrfs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// recordsFromBytes carves arbitrary bytes into records. Each record takes
// three length bytes; a length byte above 200 makes the field nil, one
// that is a multiple of 7 repeats the previous record's field — so the
// fuzzer reaches empty and nil fields, duplicates, equal keys that differ
// only in sec or val, and (lengths being independent of content) keys
// that are prefixes of each other.
func recordsFromBytes(data []byte) []Record {
	var recs []Record
	var prev Record
	field := func(n byte, prev []byte) []byte {
		switch {
		case n > 200:
			return nil
		case n%7 == 0:
			return prev
		}
		take := min(int(n%16), len(data))
		f := data[:take:take]
		data = data[take:]
		return f
	}
	for len(data) >= 3 {
		k, s, v := data[0], data[1], data[2]
		data = data[3:]
		prev = Record{Key: field(k, prev.Key), Sec: field(s, prev.Sec), Val: field(v, prev.Val)}
		recs = append(recs, prev)
	}
	return recs
}

func sameRecord(a, b Record) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Sec, b.Sec) && bytes.Equal(a.Val, b.Val)
}

// checkBatchOrder asserts the order contract on one record list: the batch
// sort, and the merge of separately sorted runs, both yield exactly the
// sequence Less gives over the materialised records; FromRecords stripes
// record i into partition i mod n and All reads the partitions back.
func checkBatchOrder(t *testing.T, recs []Record, n int) {
	t.Helper()
	checkSortAndMerge(t, recs, n)

	d, err := FromRecords("d", recs, n)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for i, r := range recs {
		if got := d.Partition(i % n).Record(i / n); !sameRecord(got, r) {
			t.Fatalf("record %d not at partition %d slot %d", i, i%n, i/n)
		}
		size += r.Size()
	}
	if d.Bytes() != size || d.NumRecords() != int64(len(recs)) {
		t.Fatalf("dataset accounts %d bytes / %d records, want %d / %d", d.Bytes(), d.NumRecords(), size, len(recs))
	}
	all := d.All()
	at := 0
	for p := 0; p < n; p++ {
		for i := p; i < len(recs); i += n {
			if !sameRecord(all[at], recs[i]) {
				t.Fatalf("All()[%d] is not record %d", at, i)
			}
			at++
		}
	}
	if at != len(all) {
		t.Fatalf("All() returned %d records, want %d", len(all), at)
	}
}

// checkSortAndMerge asserts that the batch sort, and the merge of runs of
// runLen records each sorted on its own, both yield exactly the sequence
// a stable sort by Less gives over the materialised records.
func checkSortAndMerge(t *testing.T, recs []Record, runLen int) {
	t.Helper()
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b Record) int {
		switch {
		case Less(a, b):
			return -1
		case Less(b, a):
			return 1
		}
		return 0
	})

	var sorted, merged Batch
	var ends []int
	var sc Scratch // one scratch for every sort and the merge, as an engine worker shares one
	for _, r := range recs {
		if err := sorted.Append(r.Key, r.Sec, r.Val); err != nil {
			t.Fatal(err)
		}
	}
	// Runs of runLen records, each sorted on its own, then merged.
	for lo := 0; lo < len(recs); lo += runLen {
		var run Batch
		for _, r := range recs[lo:min(lo+runLen, len(recs))] {
			if err := run.Append(r.Key, r.Sec, r.Val); err != nil {
				t.Fatal(err)
			}
		}
		run.Sort(&sc)
		merged.AppendBatch(&run)
		ends = append(ends, merged.Len())
	}
	sorted.Sort(&sc)
	merged.MergeRuns(ends, &sc)
	for name, b := range map[string]*Batch{"Sort": &sorted, "MergeRuns": &merged} {
		if b.Len() != len(want) {
			t.Fatalf("%s: %d records, want %d", name, b.Len(), len(want))
		}
		for i := range want {
			if got := b.Record(i); !sameRecord(got, want[i]) {
				t.Fatalf("%s: record %d is %q/%q/%q, Less puts %q/%q/%q there",
					name, i, got.Key, got.Sec, got.Val, want[i].Key, want[i].Sec, want[i].Val)
			}
			if i > 0 && b.SameKey(i-1, i) != bytes.Equal(want[i-1].Key, want[i].Key) {
				t.Fatalf("%s: SameKey(%d, %d) disagrees with the keys", name, i-1, i)
			}
		}
	}

}

func TestBatchOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		if round%2 == 0 {
			// A tiny alphabet makes equal fields and shared prefixes common.
			for i := range data {
				data[i] = "ab\x00"[data[i]%3]
			}
		}
		checkBatchOrder(t, recordsFromBytes(data), 1+rng.Intn(5))
	}
}

// radixRecords draws n records for the radix path: keys of 0–9 bytes,
// secondary keys of 0–2 and values of 0–3, all over {0x00, 0x01, 0xff}.
// Such keys often share their whole 8-byte prefix, differ only past the
// zero padding ("\x01" against "\x01\x00"), or are exactly 8 bytes long.
func radixRecords(rng *rand.Rand, n int) []Record {
	field := func(max int) []byte {
		f := make([]byte, rng.Intn(max+1))
		for i := range f {
			f[i] = "\x00\x01\xff"[rng.Intn(3)]
		}
		return f
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: field(9), Sec: field(2), Val: field(3)}
	}
	return recs
}

// TestBatchOrderRadixPath holds Sort and MergeRuns to the order contract
// on batches of 1k–20k records, merged from 1 to 17 runs.
func TestBatchOrderRadixPath(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 12; round++ {
		n := 1000 + rng.Intn(19001)
		runs := 1 + rng.Intn(17)
		checkSortAndMerge(t, radixRecords(rng, n), (n+runs-1)/runs)
	}
}

// TestSortAndMergeReuseScratch: once a scratch has served a sort or merge
// at a size, sorting or merging again through it allocates nothing, for
// whichever batch — the scratch keeps its storage.
func TestSortAndMergeReuseScratch(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	var shuffled, runs Batch
	var runEnds []int
	var sc Scratch
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < 7; r++ {
		var run Batch
		for _, rec := range radixRecords(rng, 700) {
			if err := run.Append(rec.Key, rec.Sec, rec.Val); err != nil {
				t.Fatal(err)
			}
		}
		shuffled.AppendBatch(&run)
		run.Sort(&sc)
		runs.AppendBatch(&run)
		runEnds = append(runEnds, runs.Len())
	}
	var b Batch
	var ends []int
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Sort shuffled", func() { b.Reset(); b.AppendBatch(&shuffled); b.Sort(&sc) }},
		{"Sort sorted", func() { b.Sort(&sc) }}, // b is left sorted by the case before
		{"MergeRuns", func() {
			b.Reset()
			b.AppendBatch(&runs)
			ends = append(ends[:0], runEnds...)
			b.MergeRuns(ends, &sc)
		}},
	} {
		c.f()
		if allocs := testing.AllocsPerRun(5, c.f); allocs != 0 {
			t.Errorf("%s: %.0f allocations after a warm-up, want 0", c.name, allocs)
		}
	}
	if b.Len() != shuffled.Len() {
		t.Fatalf("merged %d records, want %d", b.Len(), shuffled.Len())
	}
}

func FuzzBatchOrder(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{3, 201, 2, 'a', 'b', 'c', 'x', 'y', 2, 201, 2, 'a', 'b', 'x', 'y'}, uint8(2)) // key "ab" is a prefix of "abc"
	f.Add([]byte{1, 1, 1, 'k', 's', 'v', 7, 7, 7, 7, 1, 7, 't', 7, 7, 1, 'w'}, uint8(3))       // duplicates; equal key, sec or val differs
	f.Add([]byte{255, 255, 255, 0, 0, 0, 1, 0, 255, 'k'}, uint8(4))                            // nil and empty fields
	f.Add(bytes.Repeat([]byte{9, 2, 5, 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q', 'q'}, 12), uint8(5))
	// 150 records over {0x00, 0x01, 0xff}: the whole-batch Sort meets many
	// equal prefixes and ties that only zero padding separates.
	var radix []byte
	for _, r := range radixRecords(rand.New(rand.NewSource(1)), 150) {
		radix = append(radix, byte(len(r.Key)), byte(len(r.Sec)), byte(len(r.Val)))
		radix = append(append(append(radix, r.Key...), r.Sec...), r.Val...)
	}
	f.Add(radix, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		checkBatchOrder(t, recordsFromBytes(data), 1+int(parts%8))
	})
}

// TestBatchWideFields: fields whose lengths need more than 16 bits are
// stored and read back whole.
func TestBatchWideFields(t *testing.T) {
	key := bytes.Repeat([]byte("k"), 70<<10)
	sec := bytes.Repeat([]byte("s"), 70<<10)
	val := bytes.Repeat([]byte("v"), 5<<20)
	var b Batch
	for _, r := range []Record{{Key: key, Sec: sec, Val: val}, {Key: key[:1], Val: val[:1]}} {
		if err := b.Append(r.Key, r.Sec, r.Val); err != nil {
			t.Fatal(err)
		}
	}
	b.Sort(new(Scratch))
	if got := b.Record(1); !sameRecord(got, Record{Key: key, Sec: sec, Val: val}) {
		t.Fatalf("wide record came back %d/%d/%d bytes", len(got.Key), len(got.Sec), len(got.Val))
	}
	if want := int64(len(key)+len(sec)+len(val)+1+1) + 2*recordOverhead; b.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", b.Bytes(), want)
	}
}

// TestBatchRefusesFieldBeyondEntryWidth pins the typed refusal: a field
// longer than an entry's length field can express is an error, never a
// wrapped length, and the batch is left as it was.
func TestBatchRefusesFieldBeyondEntryWidth(t *testing.T) {
	var b Batch
	if err := b.appendMax([]byte("key"), nil, []byte("v"), 3); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Record{
		"key": {Key: []byte("long")},
		"sec": {Key: []byte("k"), Sec: []byte("long")},
		"val": {Key: []byte("k"), Val: []byte("long")},
	} {
		err := b.appendMax(r.Key, r.Sec, r.Val, 3)
		if !errors.Is(err, ErrFieldTooLarge) {
			t.Fatalf("%s of 4 bytes under a 3-byte limit: err = %v, want ErrFieldTooLarge", name, err)
		}
	}
	if b.Len() != 1 || b.Bytes() != 4+recordOverhead || string(b.Key(0)) != "key" {
		t.Fatalf("refused appends changed the batch: %d records, %d bytes", b.Len(), b.Bytes())
	}
}
