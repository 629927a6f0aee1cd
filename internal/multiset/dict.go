package multiset

import "sync"

// Dict interns string alphabet values (cookies, shingles, words) into dense
// Elem identifiers and remembers the reverse mapping. It is safe for
// concurrent use.
type Dict struct {
	mu      sync.RWMutex
	byName  map[string]Elem
	byID    []string
	nextID  Elem
	baseLen int
}

// NewDict returns an empty dictionary. The first interned string receives
// Elem(0).
func NewDict() *Dict {
	return &Dict{byName: make(map[string]Elem)}
}

// Intern returns the Elem for name, assigning a fresh one on first sight.
func (d *Dict) Intern(name string) Elem {
	d.mu.RLock()
	id, ok := d.byName[name]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byName[name]; ok {
		return id
	}
	id = d.nextID
	d.nextID++
	d.byName[name] = id
	d.byID = append(d.byID, name)
	return id
}

// Lookup returns the Elem for name without interning.
func (d *Dict) Lookup(name string) (Elem, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byName[name]
	return id, ok
}

// LookupCounts resolves a map of name counts without interning, under
// one read-lock hold: it appends an Entry to known for every name the
// dictionary holds and the count of every other name to unknown,
// skipping zero counts, in map order.
func (d *Dict) LookupCounts(counts map[string]uint32, known []Entry, unknown []uint32) ([]Entry, []uint32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for name, c := range counts {
		if c == 0 {
			continue
		}
		if id, ok := d.byName[name]; ok {
			known = append(known, Entry{Elem: id, Count: c})
		} else {
			unknown = append(unknown, c)
		}
	}
	return known, unknown
}

// Name returns the string for id, or "" if id was never assigned.
func (d *Dict) Name(id Elem) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) < len(d.byID) {
		return d.byID[id]
	}
	return ""
}

// Len reports the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}
