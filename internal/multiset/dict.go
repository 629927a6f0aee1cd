package multiset

import (
	"hash/maphash"
	"sync"
	"unsafe"
)

// Dict interns string alphabet values (cookies, shingles, words) into dense
// Elem identifiers and remembers the reverse mapping. It is safe for
// concurrent use.
//
// The intern table is open-addressed with linear probing and holds no
// pointers: a slot carries a name of up to maxInline bytes inline, a
// hash tag and the name's Elem, so resolving a known name reads one
// 32-byte slot — one cache line — where a map reads a control group,
// a slot and a separately allocated string. Longer names, rare in
// practice, are kept in a map beside it. Every Elem's name lives in
// its slot, and Name hands out a string that points there: a table
// outgrown by a resize stays allocated as long as such a string does,
// and its bytes never change.
type Dict struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	slots []slot // a power of two long (or empty), at most ¾ full
	// refs[id] locates id's name: its slot, or with longRef set its
	// index in longs.
	refs  []uint32
	long  map[string]Elem
	longs []string
}

// maxInline is the longest name a slot holds.
const maxInline = 23

// longRef marks a refs entry that indexes longs rather than slots.
const longRef = 1 << 31

// slot is one entry of the intern table. tag is the high half of the
// name's hash with the low bit set, so 0 marks an empty slot.
type slot struct {
	name [maxInline]byte
	n    uint8
	tag  uint32
	id   uint32
}

// NewDict returns an empty dictionary. The first interned string receives
// Elem(0).
func NewDict() *Dict {
	return &Dict{seed: maphash.MakeSeed()}
}

// hash returns name's probe start and tag in d's table.
func (d *Dict) hash(name string) (uint64, uint32) {
	h := maphash.String(d.seed, name)
	return h, uint32(h>>32) | 1
}

// lookupLocked returns the Elem for name. Caller holds d.mu.
func (d *Dict) lookupLocked(name string) (Elem, bool) {
	if len(name) > maxInline {
		id, ok := d.long[name]
		return id, ok
	}
	if len(d.slots) == 0 {
		return 0, false
	}
	h, tag := d.hash(name)
	mask := uint64(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.tag == tag && string(s.name[:s.n]) == name {
			return Elem(s.id), true
		}
		if s.tag == 0 {
			return 0, false
		}
	}
}

// Intern returns the Elem for name, assigning a fresh one on first sight.
func (d *Dict) Intern(name string) Elem {
	d.mu.RLock()
	id, ok := d.lookupLocked(name)
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.lookupLocked(name); ok {
		return id
	}
	id = Elem(len(d.refs))
	if len(name) > maxInline {
		if d.long == nil {
			d.long = make(map[string]Elem)
		}
		d.long[name] = id
		d.refs = append(d.refs, longRef|uint32(len(d.longs)))
		d.longs = append(d.longs, name)
		return id
	}
	if inline := len(d.refs) - len(d.longs); 4*(inline+1) > 3*len(d.slots) {
		d.grow()
	}
	h, tag := d.hash(name)
	s := slot{n: uint8(len(name)), tag: tag, id: uint32(id)}
	copy(s.name[:], name)
	d.refs = append(d.refs, d.place(h, s))
	return id
}

// place stores s in the first empty slot from h on and returns its
// index. Caller holds the write lock.
func (d *Dict) place(h uint64, s slot) uint32 {
	mask := uint64(len(d.slots) - 1)
	i := h & mask
	for d.slots[i].tag != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = s
	return uint32(i)
}

// grow doubles the table (to 8 slots from empty) and re-places every
// name into a fresh one, leaving the old one to any string Name handed
// out. Caller holds the write lock.
func (d *Dict) grow() {
	old := d.slots
	d.slots = make([]slot, max(8, 2*len(old)))
	for _, s := range old {
		if s.tag != 0 {
			d.refs[s.id] = d.place(maphash.Bytes(d.seed, s.name[:s.n]), s)
		}
	}
}

// Lookup returns the Elem for name without interning.
func (d *Dict) Lookup(name string) (Elem, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lookupLocked(name)
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
		if id, ok := d.lookupLocked(name); ok {
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
	if id >= Elem(len(d.refs)) {
		return ""
	}
	r := d.refs[id]
	if r&longRef != 0 {
		return d.longs[r&^longRef]
	}
	s := &d.slots[r]
	return unsafe.String(&s.name[0], s.n)
}

// Len reports the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.refs)
}
