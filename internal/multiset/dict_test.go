package multiset

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fuzzName derives a name from two input bytes: a length of 0 to 64 —
// either side of the inline limit — and a fill drawn from a three-letter
// alphabet, so short names recur often and long ones share prefixes.
func fuzzName(ln, fill byte) string {
	var b strings.Builder
	n := int(ln) % 65
	for i := range n {
		b.WriteByte('a' + (fill+byte(i*int(fill>>4)))%3)
	}
	return b.String()
}

// FuzzDict drives random Intern, Lookup, LookupCounts and Name sequences
// against a map oracle: empty names, names of up to 64 bytes (inline and
// map-kept), zero counts, and bulk interns that take the table through
// several resizes. Every Name answer is kept and re-checked at the end,
// so a resize that disturbed a string handed out earlier shows.
func FuzzDict(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0})                   // the empty name, interned then named
	f.Add([]byte{0, 23, 1, 0, 24, 1, 1, 23, 1, 1, 24, 2})   // either side of the inline limit
	f.Add([]byte{4, 200, 4, 255, 2, 3, 5, 0, 9, 1, 12, 0})  // two bulk rounds, then counts
	f.Add([]byte{4, 90, 0, 64, 7, 3, 90, 3, 200, 2, 4, 64}) // a long name among many
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDict()
		ids := map[string]Elem{}
		var names []string
		type named struct {
			id   Elem
			name string
		}
		var handed []named
		intern := func(name string) {
			got := d.Intern(name)
			want, ok := ids[name]
			if !ok {
				want = Elem(len(names))
				ids[name] = want
				names = append(names, name)
			}
			if got != want {
				t.Fatalf("Intern(%q) = %d, want %d", name, got, want)
			}
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			switch op := next(); op % 5 {
			case 0:
				intern(fuzzName(next(), next()))
			case 1:
				name := fuzzName(next(), next())
				got, ok := d.Lookup(name)
				want, wok := ids[name]
				if got != want || ok != wok {
					t.Fatalf("Lookup(%q) = %d %v, want %d %v", name, got, ok, want, wok)
				}
			case 2:
				counts := map[string]uint32{}
				for range int(next()%6) + 1 {
					counts[fuzzName(next(), next())] = uint32(next() % 4)
				}
				var wantKnown []Entry
				var wantUnknown []uint32
				for name, c := range counts {
					if c == 0 {
						continue
					}
					if id, ok := ids[name]; ok {
						wantKnown = append(wantKnown, Entry{Elem: id, Count: c})
					} else {
						wantUnknown = append(wantUnknown, c)
					}
				}
				known, unknown := d.LookupCounts(counts, nil, nil)
				SortEntries(known)
				SortEntries(wantKnown)
				slices.Sort(unknown)
				slices.Sort(wantUnknown)
				if !slices.Equal(known, wantKnown) || !slices.Equal(unknown, wantUnknown) {
					t.Fatalf("LookupCounts(%v) = %v %v, want %v %v", counts, known, unknown, wantKnown, wantUnknown)
				}
			case 3:
				id := Elem(next())
				want := ""
				if int(id) < len(names) {
					want = names[id]
				}
				got := d.Name(id)
				if got != want {
					t.Fatalf("Name(%d) = %q, want %q", id, got, want)
				}
				if want != "" {
					handed = append(handed, named{id, got})
				}
			case 4:
				round, n := next(), int(next())
				for i := range n {
					intern(fmt.Sprintf("bulk-%d-%d", round, i))
				}
			}
			if d.Len() != len(names) {
				t.Fatalf("Len %d, want %d", d.Len(), len(names))
			}
		}
		for _, h := range handed {
			if h.name != names[h.id] {
				t.Fatalf("Name(%d) handed out a string that now reads %q, want %q", h.id, h.name, names[h.id])
			}
		}
		for id, name := range names {
			if got := d.Name(Elem(id)); got != name {
				t.Fatalf("Name(%d) = %q, want %q", id, got, name)
			}
		}
	})
}

// TestDictConcurrentInternAndLookupCounts runs writers interning new
// names, inline and long, through many resizes beside readers resolving
// query maps and names. Every name a reader finds must carry the Elem
// its writer was given, and each name's Elem never changes.
func TestDictConcurrentInternAndLookupCounts(t *testing.T) {
	const writers, readers, perWriter = 2, 2, 3000
	d := NewDict()
	name := func(w, i int) string {
		if i%7 == 0 {
			return fmt.Sprintf("a-long-name-past-the-inline-limit-%d-%d", w, i)
		}
		return fmt.Sprintf("w%d-%d", w, i)
	}
	var assigned [writers][perWriter]Elem
	var wg sync.WaitGroup
	var progress [writers]int64
	var mu sync.Mutex
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				id := d.Intern(name(w, i))
				mu.Lock()
				assigned[w][i] = id
				progress[w] = int64(i + 1)
				mu.Unlock()
			}
		}()
	}
	errs := make(chan error, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var known []Entry
			var unknown []uint32
			for round := 0; round < 400; round++ {
				mu.Lock()
				var done [writers]int64
				copy(done[:], progress[:])
				mu.Unlock()
				counts := map[string]uint32{"never-interned": 1}
				want := map[Elem]string{}
				for w := range writers {
					for j := range 6 {
						if done[w] == 0 {
							break
						}
						i := (round*31 + j*97 + r) % int(done[w])
						mu.Lock()
						id := assigned[w][i]
						mu.Unlock()
						counts[name(w, i)] = 1
						want[id] = name(w, i)
					}
				}
				known, unknown = d.LookupCounts(counts, known[:0], unknown[:0])
				if len(known) != len(want) || len(unknown) != 1 {
					errs <- fmt.Errorf("LookupCounts(%v): %d known, %d unknown; want %d, 1", counts, len(known), len(unknown), len(want))
					return
				}
				for _, e := range known {
					if n, ok := want[e.Elem]; !ok || d.Name(e.Elem) != n {
						errs <- fmt.Errorf("LookupCounts resolved to %d (%q), not an Elem the writers were given", e.Elem, d.Name(e.Elem))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if d.Len() != writers*perWriter {
		t.Fatalf("Len %d, want %d", d.Len(), writers*perWriter)
	}
	for w := range writers {
		for i := range perWriter {
			if id, ok := d.Lookup(name(w, i)); !ok || id != assigned[w][i] || d.Name(id) != name(w, i) {
				t.Fatalf("%q: Lookup %d %v, Name %q; Intern gave %d", name(w, i), id, ok, d.Name(id), assigned[w][i])
			}
		}
	}
}
