package index

import (
	"math/rand"
	"slices"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// gather runs one partition probe of q the way step does, returning the
// admitted candidates (the pass's own slice: valid until its next probe)
// and the length-pruned count.
func gather(ix *Index, p *pass, q Query, t float64, k int) ([]cand, int64) {
	p.cands = p.cands[:0]
	p.begin(q)
	_, lenPruned := ix.gather(p, t, k)
	return p.cands, lenPruned
}

// TestAccumulatedConjEqualsConjOf is the scoring property: after a probe
// of a churned random corpus, for every measure, threshold and k, every
// admitted candidate's summed partials equal similarity.ConjOf of the
// query and the candidate — the same integers, so every measure returns
// the same float — and its slot holds it, under the generation it was
// admitted at, with its own UniStats. Some probes must hit
// the admission cut, so the sums the walk past it finishes are covered.
func TestAccumulatedConjEqualsConjOf(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := new(pass) // one pass for every probe: reuse is part of the property
	probes := []struct {
		t float64
		k int
	}{{0, -1}, {0.3, -1}, {0.6, -1}, {0.9, -1}, {0, 1}, {0, 3}, {0, 10}}
	cut := 0
	for trial := 0; trial < 3; trial++ {
		sets := randomMultisets(rng, 60, 40, 10, 5)
		for _, m := range similarity.All() {
			ix := buildIndex(m, sets)
			// Replace every fourth entity and remove every seventh, short
			// of a compaction: stale postings stay in the lists.
			for i, s := range sets {
				switch {
				case i%4 == 0:
					ix.Add(multiset.New(s.ID, randomMultisets(rng, 1, 40, 10, 5)[0].Entries))
				case i%7 == 0:
					ix.Remove(s.ID)
				}
			}
			var live []multiset.Multiset
			ix.Range(func(e multiset.Multiset) bool { live = append(live, e); return true })
			queries := append(live[:12:12], randomMultisets(rng, 6, 60, 12, 5)...)
			for qi, q := range queries {
				if qi >= 12 {
					q.ID = 0 // ad hoc, with elements the index never posted
				}
				overlap := 0
				for _, e := range live {
					if e.ID != q.ID && similarity.ConjOf(q, e).Common > 0 {
						overlap++
					}
				}
				for _, pr := range probes {
					cands, lenPruned := gather(ix, p, QueryOf(q), pr.t, pr.k)
					seen := map[multiset.ID]bool{}
					for _, c := range cands {
						slot := ix.slots[c.slot]
						id := slot.set.ID
						e := ix.View(id)
						if seen[id] || id == q.ID || len(e.Entries) == 0 || slot.gen != c.gen {
							t.Fatalf("%s t=%v k=%d q=%v: candidate %d admitted twice, as self, dead or stale", m.Name(), pr.t, pr.k, q, id)
						}
						seen[id] = true
						if want := similarity.ConjOf(q, e); c.conj != want || slot.uni != similarity.UniOf(e) {
							t.Fatalf("%s t=%v k=%d: candidate %d summed %+v %+v, want %+v %+v\nq %v\ne %v",
								m.Name(), pr.t, pr.k, id, c.conj, slot.uni, want, similarity.UniOf(e), q, e)
						}
					}
					if len(cands)+int(lenPruned) < overlap {
						cut++
					}
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no probe hit the admission cut")
	}
}

// TestStalePostingsAddNothing: a replaced entity keeps its slot under the
// next generation, and a removed entity's slot goes to the next new one —
// before any compaction, so the old postings still name slots that live
// entities hold again, in the very lists those entities are posted to.
// They must add nothing: every answer equals the brute-force oracle's.
func TestStalePostingsAddNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sets := randomMultisets(rng, 40, 12, 8, 4) // a small alphabet: heavy overlap
	recount := func(id multiset.ID, m multiset.Multiset) multiset.Multiset {
		out := multiset.Multiset{ID: id, Entries: slices.Clone(m.Entries)}
		for i := range out.Entries {
			out.Entries[i].Count = out.Entries[i].Count%4 + 1
		}
		return out
	}
	for _, m := range similarity.All() {
		ix := buildIndex(m, sets)
		slotOf := func(id multiset.ID) int32 { return ix.entities[id] }
		replaced, removed := sets[3], sets[7]
		rs, ds := slotOf(replaced.ID), slotOf(removed.ID)
		ix.Add(recount(replaced.ID, replaced))
		ix.Remove(removed.ID)
		ix.Add(recount(1000, removed))
		if slotOf(replaced.ID) != rs || slotOf(1000) != ds {
			t.Fatalf("%s: slots not reused: %d→%d, %d→%d", m.Name(), rs, slotOf(replaced.ID), ds, slotOf(1000))
		}
		if st := ix.Stats(); st.Compactions != 0 {
			t.Fatalf("%s: compacted, so no stale posting is left: %+v", m.Name(), st)
		}
		var live []multiset.Multiset
		ix.Range(func(e multiset.Multiset) bool { live = append(live, e); return true })
		for _, q := range live {
			for _, thr := range []float64{0.2, 0.5} {
				if got, want := ix.QueryThresholdInto(QueryOf(q), thr, nil), bruteForce(ix, QueryOf(q), thr); !slices.Equal(got, want) {
					t.Fatalf("%s q=%d t=%v:\ngot  %v\nwant %v", m.Name(), q.ID, thr, got, want)
				}
			}
			for _, k := range []int{1, 5} {
				if got, want := ix.QueryTopKInto(QueryOf(q), k, nil), oracleKNN(live, q, k, m); !slices.Equal(got, want) {
					t.Fatalf("%s q=%d k=%d:\ngot  %v\nwant %v", m.Name(), q.ID, k, got, want)
				}
			}
		}
	}
}

// TestHugeQueryElementGrowsNoScratch: a query naming element 1<<40
// against a small index matches nothing through it, weighs it into every
// denominator exactly as ConjOf-based verification does, and sizes no
// scratch table by it: the pass's tables follow the index's slot count
// and the query's length, and the posting directory follows the largest
// element added.
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
	dir := len(ix.postings)
	q := QueryOf(multiset.New(0, []multiset.Entry{{Elem: 1, Count: 1}, {Elem: 7, Count: 2}, {Elem: 1 << 40, Count: 3}}))
	p := new(pass)
	p.begin(q)
	ix.step(p, 0, -1)
	if len(p.marks) > len(sets)*3/2+16 || len(p.lists) != len(q.Set.Entries) {
		t.Fatalf("pass tables: %d marks, %d lists for %d entities and a %d-element query",
			len(p.marks), len(p.lists), len(sets), len(q.Set.Entries))
	}
	ix.QueryTopKInto(q, 5, nil)
	if len(ix.postings) != dir || dir > alphabet {
		t.Fatalf("posting directory: %d slots after the queries, %d before, for a %d-element alphabet", len(ix.postings), dir, alphabet)
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
