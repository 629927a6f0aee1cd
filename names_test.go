package vsmartjoin

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// checkNameTable holds t to its model — the sorted keys of a map — and
// to its structural invariants: no empty chunk, none over nameChunk.
func checkNameTable(tb testing.TB, tag string, t *nameTable, model map[string]bool) {
	tb.Helper()
	want := slices.Sorted(maps.Keys(model))
	if got := slices.Collect(t.all()); !slices.Equal(got, want) {
		tb.Fatalf("%s: table holds %d names, model %d\n got: %.20q\nwant: %.20q", tag, len(got), len(want), got, want)
	}
	for i, c := range t.chunks {
		if len(c) == 0 || len(c) > nameChunk {
			tb.Fatalf("%s: chunk %d of %d holds %d names", tag, i, len(t.chunks), len(c))
		}
	}
}

// TestNameTableModel drives seeded random insert / remove / re-insert /
// bulk-load sequences against sorted map keys. The key space is a few
// chunks wide, so the walk crosses split and merge boundaries both ways
// many times, empties the table, and keeps hitting duplicates and
// absent names.
func TestNameTableModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab nameTable
		model := map[string]bool{}
		key := func() string { return fmt.Sprintf("n%04d", rng.Intn(4*nameChunk)) }
		grow := true
		for step := 0; step < 40000; step++ {
			// Alternate growing and shrinking phases so the table swings
			// between full chunks and none at all.
			if step%5000 == 0 {
				grow = !grow
			}
			name := key()
			insert := rng.Intn(4) != 0
			if !grow {
				insert = !insert
			}
			if insert {
				if got := tab.insert(name); got == model[name] {
					t.Fatalf("seed %d step %d: insert(%q) = %v with present = %v", seed, step, name, got, model[name])
				}
				model[name] = true
			} else {
				if got := tab.remove(name); got != model[name] {
					t.Fatalf("seed %d step %d: remove(%q) = %v with present = %v", seed, step, name, got, model[name])
				}
				delete(model, name)
			}
			if step%97 == 0 {
				checkNameTable(t, fmt.Sprintf("seed %d step %d", seed, step), &tab, model)
			}
			if step%9973 == 0 {
				// Bulk load replaces the contents; mutations continue on
				// the loaded chunks (windows onto one array).
				clear(model)
				names := make([]string, 0, 3*nameChunk)
				for len(names) < cap(names) {
					if name := key(); !model[name] {
						model[name] = true
						names = append(names, name)
					}
				}
				tab.load(names)
				checkNameTable(t, fmt.Sprintf("seed %d step %d load", seed, step), &tab, model)
			}
		}
		for name := range model {
			if !tab.remove(name) {
				t.Fatalf("seed %d: drain: %q absent", seed, name)
			}
		}
		if len(tab.chunks) != 0 {
			t.Fatalf("seed %d: drained table keeps %d chunks", seed, len(tab.chunks))
		}
	}
}

// TestNameTableBoundaries pins the edge cases one at a time: the empty
// table, names sorting before and after every other, the exact split
// and merge points, a duplicate insert and an absent remove.
func TestNameTableBoundaries(t *testing.T) {
	var tab nameTable
	model := map[string]bool{}
	if tab.remove("x") || len(slices.Collect(tab.all())) != 0 {
		t.Fatal("empty table is not empty")
	}
	tab.load(nil)
	checkNameTable(t, "load(nil)", &tab, model)

	add := func(name string) {
		t.Helper()
		if !tab.insert(name) {
			t.Fatalf("insert(%q) found it present", name)
		}
		model[name] = true
	}
	del := func(name string) {
		t.Helper()
		if !tab.remove(name) {
			t.Fatalf("remove(%q) found it absent", name)
		}
		delete(model, name)
	}
	// One chunk, filled to the brim: no split yet.
	for i := 0; i < nameChunk; i++ {
		add(fmt.Sprintf("m%04d", i))
	}
	if len(tab.chunks) != 1 {
		t.Fatalf("%d names in %d chunks, want 1", nameChunk, len(tab.chunks))
	}
	// One more splits it, whether it lands before every name or after.
	add("!first")
	if len(tab.chunks) != 2 {
		t.Fatalf("%d names in %d chunks, want 2", nameChunk+1, len(tab.chunks))
	}
	add("~last")
	checkNameTable(t, "split", &tab, model)
	if tab.insert("!first") || tab.insert("~last") || tab.insert("m0100") {
		t.Fatal("duplicate insert reported absent")
	}
	if tab.remove("!") || tab.remove("m0100x") || tab.remove("~~") {
		t.Fatal("absent remove reported present")
	}
	checkNameTable(t, "no-ops", &tab, model)

	// Shrink until the two chunks fit in half of one: they fold back.
	for i := 0; len(model) > nameChunk/2; i++ {
		if len(tab.chunks) != 2 {
			t.Fatalf("merged early, at %d names", len(model))
		}
		del(fmt.Sprintf("m%04d", i))
	}
	if len(tab.chunks) != 1 {
		t.Fatalf("%d names in %d chunks, want 1", len(model), len(tab.chunks))
	}
	checkNameTable(t, "merge", &tab, model)
	// The smallest and largest names churn in place.
	del("!first")
	del("~last")
	add("!first")
	add("~last")
	add("!")
	add("~~")
	checkNameTable(t, "extremes", &tab, model)

	// A loaded table's chunks are windows onto one array: an insert into
	// one must not write into the next.
	names := make([]string, 2*nameChunk)
	clear(model)
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", 2*i)
		model[names[i]] = true
	}
	rand.New(rand.NewSource(5)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	tab.load(names)
	for i := 0; i < 2*nameChunk; i += 7 {
		add(fmt.Sprintf("w%04d", 2*i+1))
	}
	checkNameTable(t, "insert after load", &tab, model)
}
