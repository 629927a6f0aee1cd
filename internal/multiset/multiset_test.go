package multiset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ms(id ID, pairs ...uint64) Multiset {
	if len(pairs)%2 != 0 {
		panic("pairs must be even")
	}
	entries := make([]Entry, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		entries = append(entries, Entry{Elem: Elem(pairs[i]), Count: uint32(pairs[i+1])})
	}
	return New(id, entries)
}

func TestNewNormalizes(t *testing.T) {
	// Element 5's sum saturates; element 6's lands exactly on the cap.
	m := New(7, []Entry{{3, 2}, {1, 1}, {3, 5}, {2, 0}, {9, 1},
		{5, math.MaxUint32}, {5, 2}, {5, 1}, {6, math.MaxUint32 - 1}, {6, 1}})
	want := []Entry{{1, 1}, {3, 7}, {5, math.MaxUint32}, {6, math.MaxUint32}, {9, 1}}
	if len(m.Entries) != len(want) {
		t.Fatalf("got %v want %v", m.Entries, want)
	}
	for i := range want {
		if m.Entries[i] != want[i] {
			t.Fatalf("entry %d: got %v want %v", i, m.Entries[i], want[i])
		}
	}
	if m.ID != 7 {
		t.Fatalf("ID: got %d want 7", m.ID)
	}
}

func TestCardinalities(t *testing.T) {
	m := ms(1, 10, 3, 20, 1, 30, 6)
	if got := m.Cardinality(); got != 10 {
		t.Fatalf("Cardinality: got %d want 10", got)
	}
	if got := m.UnderlyingCardinality(); got != 3 {
		t.Fatalf("UnderlyingCardinality: got %d want 3", got)
	}
}

func TestCountAndContains(t *testing.T) {
	m := ms(1, 5, 2, 10, 7)
	if m.Count(5) != 2 || m.Count(10) != 7 || m.Count(6) != 0 {
		t.Fatal("Count wrong")
	}
	if !m.Contains(5) || m.Contains(999) {
		t.Fatal("Contains wrong")
	}
}

func TestIntersectionUnion(t *testing.T) {
	a := ms(1, 1, 3, 2, 5, 4, 1)
	b := ms(2, 2, 2, 3, 3, 4, 4)
	// intersection: elem2 min(5,2)=2, elem4 min(1,4)=1 → 3
	if got := IntersectionCardinality(a, b); got != 3 {
		t.Fatalf("intersection: got %d want 3", got)
	}
	// union = |a|+|b|-int = 9+9-3 = 15
	if got := UnionCardinality(a, b); got != 15 {
		t.Fatalf("union: got %d want 15", got)
	}
}

func TestExpandSetRepresentation(t *testing.T) {
	m := ms(1, 4, 2, 9, 1)
	exp := Expand(m)
	if len(exp) != int(m.Cardinality()) {
		t.Fatalf("expanded size %d want %d", len(exp), m.Cardinality())
	}
	want := []ExpandedElem{{4, 1}, {4, 2}, {9, 1}}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("item %d: got %v want %v", i, exp[i], want[i])
		}
	}
}

// Property: Ruzicka on multisets equals Jaccard on expanded sets. This is
// the identity that lets VCL treat multisets as sets.
func TestExpandedJaccardEqualsRuzicka(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := randomMultiset(rng, 1)
		b := randomMultiset(rng, 2)
		ia := IntersectionCardinality(a, b)
		ua := UnionCardinality(a, b)
		// expanded intersection: count shared ExpandedElems
		ea, eb := Expand(a), Expand(b)
		shared := 0
		seen := make(map[ExpandedElem]bool, len(ea))
		for _, x := range ea {
			seen[x] = true
		}
		for _, x := range eb {
			if seen[x] {
				shared++
			}
		}
		eu := len(ea) + len(eb) - shared
		if uint64(shared) != ia || uint64(eu) != ua {
			t.Fatalf("trial %d: expanded (%d,%d) vs multiset (%d,%d)", trial, shared, eu, ia, ua)
		}
	}
}

func randomMultiset(rng *rand.Rand, id ID) Multiset {
	n := rng.Intn(12)
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{Elem: Elem(rng.Intn(10)), Count: uint32(rng.Intn(5))})
	}
	return New(id, entries)
}

func TestQuickCommutativity(t *testing.T) {
	gen := func(vals []uint8) Multiset {
		entries := make([]Entry, 0, len(vals)/2)
		for i := 0; i+1 < len(vals); i += 2 {
			entries = append(entries, Entry{Elem: Elem(vals[i] % 16), Count: uint32(vals[i+1] % 4)})
		}
		return New(1, entries)
	}
	f := func(x, y []uint8) bool {
		a, b := gen(x), gen(y)
		return IntersectionCardinality(a, b) == IntersectionCardinality(b, a) &&
			UnionCardinality(a, b) == UnionCardinality(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSelfOperations(t *testing.T) {
	f := func(vals []uint8) bool {
		entries := make([]Entry, 0, len(vals)/2)
		for i := 0; i+1 < len(vals); i += 2 {
			entries = append(entries, Entry{Elem: Elem(vals[i]), Count: uint32(vals[i+1] % 8)})
		}
		m := New(1, entries)
		return IntersectionCardinality(m, m) == m.Cardinality() &&
			UnionCardinality(m, m) == m.Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFromCountsAndFromSet(t *testing.T) {
	m := FromCounts(3, map[Elem]uint32{5: 2, 1: 0, 9: 1})
	if m.UnderlyingCardinality() != 2 || m.Cardinality() != 3 {
		t.Fatalf("FromCounts wrong: %v", m)
	}
	s := FromSet(4, []Elem{7, 3, 7, 1})
	if s.Count(7) != 1 || s.Cardinality() != 3 || s.UnderlyingCardinality() != 3 {
		t.Fatalf("FromSet should dedupe: %v", s)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := ms(1, 1, 2, 3, 4)
	b := a.Clone()
	if !Equal(a, b) {
		t.Fatal("clone should be equal")
	}
	b.Entries[0].Count++
	if Equal(a, b) {
		t.Fatal("mutated clone should differ")
	}
	c := ms(2, 1, 2, 3, 4)
	if Equal(a, c) {
		t.Fatal("different IDs should differ")
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("cookie-a")
	b := d.Intern("cookie-b")
	a2 := d.Intern("cookie-a")
	if a != a2 {
		t.Fatal("intern not stable")
	}
	if a == b {
		t.Fatal("distinct strings collided")
	}
	if d.Name(a) != "cookie-a" || d.Name(b) != "cookie-b" {
		t.Fatal("Name wrong")
	}
	if d.Len() != 2 {
		t.Fatalf("Len: got %d want 2", d.Len())
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup found missing")
	}
	if d.Name(Elem(99)) != "" {
		t.Fatal("Name of unknown id should be empty")
	}
	known, unknown := d.LookupCounts(map[string]uint32{"cookie-a": 3, "cookie-b": 0, "missing": 2, "gone": 0}, nil, nil)
	if len(known) != 1 || known[0] != (Entry{Elem: a, Count: 3}) || len(unknown) != 1 || unknown[0] != 2 {
		t.Fatalf("LookupCounts: known %v, unknown %v", known, unknown)
	}
	if d.Len() != 2 {
		t.Fatal("LookupCounts interned")
	}
}

func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				d.Intern(string(rune('a' + i%26)))
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if d.Len() != 26 {
		t.Fatalf("Len: got %d want 26", d.Len())
	}
}

// TestMix64 pins Mix64 to the reference splitmix64 stream from seed 0:
// its first outputs are Mix64 of 0 and of one golden-ratio step.
func TestMix64(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
	} {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
