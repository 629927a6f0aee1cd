package vsmartjoin

import (
	"iter"
	"slices"
	"sort"
)

// nameChunk caps a nameTable chunk: large enough that the chunk
// directory stays a few thousand entries at a million names, small
// enough that the memmove an insert or a removal pays (at most 4 KiB of
// string headers) stays below the cost of the two binary searches.
const nameChunk = 256

// nameTable holds the indexed entity names in ascending order — the
// order a kNN pad is read in — as a directory of sorted chunks: every
// chunk is non-empty and holds at most nameChunk names, and the chunks
// concatenate to the sorted whole. An insert or a removal binary-searches
// the directory by first name, then the chunk, and shifts within that
// one chunk: O(log n + nameChunk), so a loop of inserts never turns
// quadratic the way a flat sorted slice does. The directory itself
// shifts only when a chunk splits or empties, once per ~nameChunk/2
// inserts, which amortizes to n/nameChunk² slots per insert. Reading
// the first m names is O(m). The zero value is an empty table; the
// Index guards its table with ix.mu like the name maps beside it.
type nameTable struct {
	chunks [][]string
}

// find locates name: the chunk that holds it or would, the position
// inside that chunk, and whether it is present. The table must not be
// empty.
func (t *nameTable) find(name string) (ci, pos int, found bool) {
	// The last chunk whose first name is ≤ name; a name sorting before
	// every other belongs at the head of chunk 0.
	ci = max(sort.Search(len(t.chunks), func(i int) bool { return t.chunks[i][0] > name })-1, 0)
	pos, found = slices.BinarySearch(t.chunks[ci], name)
	return ci, pos, found
}

// insert adds name and reports whether it was absent.
func (t *nameTable) insert(name string) bool {
	if len(t.chunks) == 0 {
		t.chunks = [][]string{{name}}
		return true
	}
	ci, pos, found := t.find(name)
	if found {
		return false
	}
	c := slices.Insert(t.chunks[ci], pos, name)
	if len(c) > nameChunk {
		// Split in half: the right half moves to an array of its own,
		// the left keeps this one (and room to grow in place).
		half := len(c) / 2
		t.chunks = slices.Insert(t.chunks, ci+1, slices.Clone(c[half:]))
		clear(c[half:])
		c = c[:half]
	}
	t.chunks[ci] = c
	return true
}

// remove deletes name and reports whether it was present. A chunk that
// empties leaves the directory, and one that shrinks is folded into a
// neighbor when the two fit in half a chunk, so removals cannot leave a
// long directory of near-empty chunks behind.
func (t *nameTable) remove(name string) bool {
	if len(t.chunks) == 0 {
		return false
	}
	ci, pos, found := t.find(name)
	if !found {
		return false
	}
	t.chunks[ci] = slices.Delete(t.chunks[ci], pos, pos+1)
	if len(t.chunks[ci]) == 0 {
		t.chunks = slices.Delete(t.chunks, ci, ci+1)
		return true
	}
	// Try the pair (ci, ci+1), then (ci−1, ci).
	for _, l := range [2]int{ci, ci - 1} {
		if l >= 0 && l+1 < len(t.chunks) && len(t.chunks[l])+len(t.chunks[l+1]) <= nameChunk/2 {
			t.chunks[l] = append(t.chunks[l], t.chunks[l+1]...)
			t.chunks = slices.Delete(t.chunks, l+1, l+2)
			break
		}
	}
	return true
}

// load replaces the table's contents with names, which it sorts in
// place and keeps: one sort, and no copy — the chunks are half-full
// windows onto names (as after a split, so the first insert into one
// does not split it), clipped so that an insert reallocates the one
// chunk instead of overwriting its neighbor. names must not repeat.
func (t *nameTable) load(names []string) {
	slices.Sort(names)
	t.chunks = slices.Collect(slices.Chunk(names, nameChunk/2))
}

// all iterates the names in ascending order.
func (t *nameTable) all() iter.Seq[string] {
	return func(yield func(string) bool) {
		for _, c := range t.chunks {
			for _, name := range c {
				if !yield(name) {
					return
				}
			}
		}
	}
}
