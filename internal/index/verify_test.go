package index

import (
	"math/rand"
	"slices"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// bitmapConj runs the verification walk for one (query, entity) pair on
// p the way a partition step would: cover up to maxElem, then conj.
func bitmapConj(p *pass, q, e multiset.Multiset, maxElem multiset.Elem) similarity.ConjStats {
	p.begin(QueryOf(q), nil)
	p.cover(maxElem)
	c := p.conj(&entry{set: e})
	p.reset()
	return c
}

// TestBitmapConjEqualsConjOf is the verification property: for any query
// and any entity whose elements the index could hold (all at or below
// maxElem), the bitmap walk computes exactly similarity.ConjOf — the
// same integers, so every measure returns the same float.
func TestBitmapConjEqualsConjOf(t *testing.T) {
	const alphabet = 200
	maxElem := multiset.Elem(alphabet - 1)
	rng := rand.New(rand.NewSource(31))
	p := new(pass) // one pass for every case: reuse is part of the property
	check := func(tag string, q, e multiset.Multiset) {
		t.Helper()
		if got, want := bitmapConj(p, q, e, maxElem), similarity.ConjOf(q, e); got != want {
			t.Fatalf("%s: bitmap conj %+v, ConjOf %+v\nq %v\ne %v", tag, got, want, q, e)
		}
		for w, word := range p.bits {
			if word != 0 {
				t.Fatalf("%s: word %d of the reset bitmap is %#x", tag, w, word)
			}
		}
	}
	some := randomMultisets(rng, 1, alphabet, 20, 5)[0]
	check("empty query", multiset.Multiset{}, some)
	check("empty entity", some, multiset.Multiset{ID: 7})
	check("identical", some, some)
	check("disjoint",
		multiset.New(0, []multiset.Entry{{Elem: 1, Count: 2}, {Elem: 70, Count: 1}, {Elem: 199, Count: 3}}),
		multiset.New(1, []multiset.Entry{{Elem: 0, Count: 2}, {Elem: 69, Count: 1}, {Elem: 71, Count: 3}, {Elem: 198, Count: 1}}))
	check("entity beyond the query's largest",
		multiset.New(0, []multiset.Entry{{Elem: 3, Count: 2}, {Elem: 5, Count: 1}}),
		multiset.New(1, []multiset.Entry{{Elem: 3, Count: 4}, {Elem: 64, Count: 1}, {Elem: 199, Count: 9}}))
	check("query beyond the index's largest",
		multiset.New(0, []multiset.Entry{{Elem: 3, Count: 2}, {Elem: 199, Count: 1}, {Elem: 200, Count: 1}, {Elem: 1 << 40, Count: 5}}),
		multiset.New(1, []multiset.Entry{{Elem: 3, Count: 4}, {Elem: 199, Count: 9}}))
	for trial := 0; trial < 2000; trial++ {
		// Queries draw from twice the alphabet: about half their elements
		// lie beyond anything the index has posted.
		q := randomMultisets(rng, 1, 2*alphabet, 1+rng.Intn(40), 6)[0]
		e := randomMultisets(rng, 1, alphabet, 1+rng.Intn(40), 6)[0]
		if trial%3 == 0 { // force heavy overlap
			e = multiset.New(1, append(append([]multiset.Entry{}, e.Entries...), q.Entries[:len(q.Entries)/2]...))
			for len(e.Entries) > 0 && e.Entries[len(e.Entries)-1].Elem > maxElem {
				e.Entries = e.Entries[:len(e.Entries)-1]
			}
		}
		check("random", q, e)
	}
}

// TestPassReuseSeesNoStaleBit: a pass that served one query and went
// back to the pool must answer a second, disjoint query as a fresh one
// does — a stale bit would make the walk look up a count the second
// query does not hold.
func TestPassReuseSeesNoStaleBit(t *testing.T) {
	first := multiset.New(0, []multiset.Entry{{Elem: 2, Count: 1}, {Elem: 64, Count: 2}, {Elem: 130, Count: 3}})
	second := multiset.New(0, []multiset.Entry{{Elem: 3, Count: 1}, {Elem: 65, Count: 2}})
	both := multiset.New(1, append(append([]multiset.Entry{}, first.Entries...), second.Entries...))
	p := new(pass)
	if got, want := bitmapConj(p, first, both, 130), similarity.ConjOf(first, both); got != want {
		t.Fatalf("first query: %+v, want %+v", got, want)
	}
	if got, want := bitmapConj(p, second, both, 130), similarity.ConjOf(second, both); got != want {
		t.Fatalf("second query on the reused pass: %+v, want %+v", got, want)
	}
}

// TestHugeQueryElementGrowsNoScratch: a query naming element 1<<40
// against a small index matches nothing through it, weighs it into every
// denominator exactly as ConjOf-based verification did, and sizes its
// bitmap by the index's alphabet, not by the query's.
func TestHugeQueryElementGrowsNoScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const alphabet = 50
	sets := randomMultisets(rng, 80, alphabet, 8, 4)
	for _, m := range similarity.All() {
		ix := buildIndex(m, sets)
		for _, s := range sets[:20] {
			q := multiset.New(0, append(append([]multiset.Entry{}, s.Entries...), multiset.Entry{Elem: 1 << 40, Count: 3}))
			got := ix.QueryThresholdInto(QueryOf(q), 0, nil)
			var want []Match
			for _, e := range sets {
				if c := similarity.ConjOf(q, e); c.Common > 0 {
					want = append(want, Match{ID: e.ID, Sim: m.Sim(similarity.UniOf(q), similarity.UniOf(e), c)})
				}
			}
			SortMatches(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: query %v\ngot  %v\nwant %v", m.Name(), q, got, want)
			}
			if top := ix.QueryTopKInto(QueryOf(q), 5, nil); !slices.Equal(top, want[:min(5, len(want))]) {
				t.Fatalf("%s top-5: query %v\ngot  %v\nwant %v", m.Name(), q, top, want[:min(5, len(want))])
			}
		}
	}

	ix := buildIndex(similarity.Ruzicka{}, sets)
	q := QueryOf(multiset.New(0, []multiset.Entry{{Elem: 1, Count: 1}, {Elem: 7, Count: 2}, {Elem: 1 << 40, Count: 3}}))
	p := new(pass)
	p.begin(q, nil)
	ix.thresholdStep(p, 0)
	if words := alphabet/64 + 1; len(p.bits) > words {
		t.Fatalf("bitmap grew to %d words for an alphabet of %d (%d hold it)", len(p.bits), alphabet, words)
	}
	if raceDetector {
		return
	}
	var buf []Match
	if n := testing.AllocsPerRun(100, func() { buf = ix.QueryThresholdInto(q, 0, buf[:0]) }); n != 0 {
		t.Fatalf("threshold query with a huge element ID allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = ix.QueryTopKInto(q, 5, buf[:0]) }); n != 0 {
		t.Fatalf("top-k query with a huge element ID allocates %v/op, want 0", n)
	}
}
