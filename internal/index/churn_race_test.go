package index

// Churn-vs-query schedule for the race detector: writers hammer
// Add/Remove hard enough to force repeated maybeCompact rewrites
// (every removal marks postings dead, and compaction fires once dead
// postings outnumber live ones) while readers run threshold and top-k
// queries through the pooled scratch/epoch-stamped candidate path the
// whole time, and now and then read the guarded counters through Len
// and Stats. The index has no lock of its own: like vsmartjoin.Index,
// the test holds an RWMutex for writing across each mutation and for
// reading across each query, Len and Stats. Run under -race this proves
// the slot-recycling dedup machinery never reads or stamps across a slot
// reuse and that no read path writes shared state beyond its atomic
// counters; the final oracle comparison proves the quiesced index still
// answers exactly.

import (
	"sync"
	"sync/atomic"
	"testing"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

func churnSet(id, flavor int) multiset.Multiset {
	entries := make([]multiset.Entry, 0, 8)
	for j := 0; j < 8; j++ {
		elem := multiset.Elem((id*13 + flavor + j*j*5) % 257)
		entries = append(entries, multiset.Entry{Elem: elem, Count: uint32(j%4 + 1)})
	}
	return multiset.New(multiset.ID(id), entries)
}

func TestChurnWithConcurrentQueries(t *testing.T) {
	const (
		entities = 400
		writers  = 4
		readers  = 4
		rounds   = churnRounds // build-tag scaled: shorter under -race
	)
	ix := New(similarity.Ruzicka{})
	for id := 1; id <= entities; id++ {
		ix.Add(churnSet(id, 0))
	}

	var mu sync.RWMutex // the exclusion a caller provides
	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	// Writers: each owns a disjoint ID stripe and cycles every entity
	// through remove → re-add with a different flavor, forcing dead
	// postings to pile up and compactions to fire while readers run.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for r := 0; r < rounds; r++ {
				for id := 1 + w; id <= entities; id += writers {
					mu.Lock()
					ix.Remove(multiset.ID(id))
					mu.Unlock()
					mu.Lock()
					ix.Add(churnSet(id, r%7))
					mu.Unlock()
				}
			}
		}(w)
	}

	// Readers: threshold and top-k queries with reused buffers until the
	// writers finish, and every 64th iteration Len and Stats. Results are
	// only sanity-checked here (the index is in flux); exactness is
	// proven post-quiesce against the oracle.
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			var buf []Match
			for i := 0; !stop.Load(); i++ {
				if i%64 == 0 {
					mu.RLock()
					n, st := ix.Len(), ix.Stats()
					mu.RUnlock()
					if n > entities || st.Entities > entities {
						t.Errorf("Len %d, Stats.Entities %d: more than the %d entities ever indexed", n, st.Entities, entities)
						return
					}
				}
				q := QueryOf(churnSet(1+(g*31+i)%entities, i%7))
				mu.RLock()
				if i%2 == 0 {
					buf = ix.QueryThresholdInto(q, 0.5, buf[:0])
				} else {
					buf = ix.QueryTopKInto(q, 10, buf[:0])
				}
				mu.RUnlock()
				for j := 1; j < len(buf); j++ {
					if worseMatch(buf[j-1], buf[j]) {
						t.Errorf("results out of canonical order: %v before %v", buf[j-1], buf[j])
						return
					}
				}
			}
		}(g)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	if got := ix.Stats().Compactions; got == 0 {
		t.Fatalf("churn schedule never compacted (dead postings never outnumbered live); Stats: %+v", ix.Stats())
	}

	// Quiesced exactness: every remaining entity's threshold query must
	// match a brute-force scan over snapshots.
	for id := 1; id <= entities; id += 37 {
		q := QueryOf(ix.Snapshot(multiset.ID(id)))
		got := ix.QueryThresholdInto(q, 0.3, nil)
		want := bruteForce(ix, q, 0.3)
		if len(got) != len(want) {
			t.Fatalf("id %d: %d results, oracle %d\ngot  %v\nwant %v", id, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("id %d result %d: got %v want %v", id, i, got[i], want[i])
			}
		}
	}
}

// bruteForce answers a threshold query by scanning every indexed entity
// and verifying directly — no postings, no pruning, no scratch state.
func bruteForce(ix *Index, q Query, t float64) []Match {
	qUni := queryStats(q)
	var out []Match
	ix.Range(func(m multiset.Multiset) bool {
		if m.ID == q.Set.ID {
			return true
		}
		var uni similarity.UniStats
		for _, e := range m.Entries {
			uni.AccumulateUni(e.Count)
		}
		sim := ix.Measure().Sim(qUni, uni, similarity.ConjOf(q.Set, m))
		if sim+verifyEps >= t {
			out = append(out, Match{ID: m.ID, Sim: sim})
		}
		return true
	})
	SortMatches(out)
	return out
}
