package mrfs

import (
	"bytes"
	"testing"
)

func rec(k, v string) Record { return Record{Key: []byte(k), Val: []byte(v)} }

func TestFromRecordsStripes(t *testing.T) {
	recs := []Record{rec("a", "1"), rec("b", "2"), rec("c", "3"), rec("d", "4"), rec("e", "5")}
	d, err := FromRecords("x", recs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPartitions() != 2 {
		t.Fatalf("partitions: got %d want 2", d.NumPartitions())
	}
	if d.Partition(0).Len() != 3 || d.Partition(1).Len() != 2 {
		t.Fatalf("striping wrong: %d/%d", d.Partition(0).Len(), d.Partition(1).Len())
	}
	if d.NumRecords() != 5 {
		t.Fatalf("NumRecords: got %d want 5", d.NumRecords())
	}
}

func TestNewDatasetMinPartitions(t *testing.T) {
	d := NewDataset("x", 0)
	if d.NumPartitions() != 1 {
		t.Fatal("should clamp to 1 partition")
	}
}

func TestBytesAccounting(t *testing.T) {
	d := NewDataset("x", 1)
	r := Record{Key: []byte("key"), Sec: []byte("s"), Val: []byte("value")}
	d.Append(0, r)
	want := int64(3 + 1 + 5 + 6)
	if got := d.Bytes(); got != want {
		t.Fatalf("Bytes: got %d want %d", got, want)
	}
	if r.Size() != want {
		t.Fatalf("Size: got %d want %d", r.Size(), want)
	}
}

func TestSortedDeterministic(t *testing.T) {
	d := NewDataset("x", 2)
	d.Append(1, rec("b", "2"))
	d.Append(0, rec("a", "1"))
	d.Append(0, rec("b", "1"))
	d.Append(1, Record{Key: []byte("a"), Sec: []byte("z"), Val: []byte("3")})
	got := d.Sorted()
	if string(got[0].Key) != "a" || string(got[0].Val) != "1" {
		t.Fatalf("order wrong: %v", got)
	}
	// a/"" < a/z
	if string(got[1].Sec) != "z" {
		t.Fatalf("secondary order wrong: %q", got[1].Sec)
	}
	if string(got[2].Key) != "b" || string(got[2].Val) != "1" {
		t.Fatalf("val tiebreak wrong: %v", got[2])
	}
}

func TestLessTotalOrder(t *testing.T) {
	a := rec("a", "")
	b := rec("ab", "")
	if !Less(a, b) || Less(b, a) {
		t.Fatal("prefix ordering wrong")
	}
	if Less(a, a) {
		t.Fatal("irreflexivity violated")
	}
}

func TestAllAliases(t *testing.T) {
	d := NewDataset("x", 1)
	d.Append(0, rec("k", "v"))
	all := d.All()
	if len(all) != 1 || !bytes.Equal(all[0].Key, []byte("k")) {
		t.Fatalf("All wrong: %v", all)
	}
}
