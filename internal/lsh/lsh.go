// Package lsh implements the MinHash locality-sensitive-hashing baseline
// the paper surveys (§6.1): Broder-style resemblance estimation with
// banding for candidate generation. Multisets are handled through the
// expanded set representation, so the estimated quantity is Ruzicka (the
// generalized Jaccard), matching the paper's observation that LSH schemes
// can adopt the expansion of Chaudhuri et al.
//
// The algorithms here are sequential and approximate — exactly the
// properties that motivated the exact distributed V-SMART-Join — and serve
// as the accuracy/recall comparison baseline.
package lsh

import (
	"fmt"
	"sort"

	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// MinHasher computes k-permutation MinHash signatures.
type MinHasher struct {
	seeds []uint64
}

// NewMinHasher returns a hasher with k hash functions derived from seed.
func NewMinHasher(k int, seed uint64) *MinHasher {
	if k < 1 {
		k = 1
	}
	seeds := make([]uint64, k)
	s := seed
	for i := range seeds {
		s = splitmix(s)
		seeds[i] = s
	}
	return &MinHasher{seeds: seeds}
}

// K reports the signature length.
func (m *MinHasher) K() int { return len(m.seeds) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashItem(seed uint64, e multiset.Elem, copy uint32) uint64 {
	return splitmix(seed ^ splitmix(uint64(e)*0x100000001b3+uint64(copy)))
}

// Signature computes the MinHash signature of a multiset over its expanded
// set representation.
func (m *MinHasher) Signature(ms multiset.Multiset) []uint64 {
	sig := make([]uint64, len(m.seeds))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, e := range ms.Entries {
		for c := uint32(1); c <= e.Count; c++ {
			for i, seed := range m.seeds {
				if h := hashItem(seed, e.Elem, c); h < sig[i] {
					sig[i] = h
				}
			}
		}
	}
	return sig
}

// Estimate returns the fraction of agreeing signature positions — an
// unbiased estimator of the Ruzicka similarity.
func Estimate(a, b []uint64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// Config parameterizes an approximate LSH join.
type Config struct {
	// Bands × Rows hash functions are used; candidates collide on at
	// least one band.
	Bands, Rows int
	// Seed derives the hash family.
	Seed uint64
	// Threshold is the similarity cut-off.
	Threshold float64
	// Verify recomputes the exact Ruzicka for every candidate instead of
	// using the signature estimate.
	Verify bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bands < 1 || c.Rows < 1 {
		return fmt.Errorf("lsh: bands %d and rows %d must be positive", c.Bands, c.Rows)
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("lsh: threshold %v outside [0,1]", c.Threshold)
	}
	return nil
}

// Stats reports the work an LSH join did.
type Stats struct {
	Candidates int // distinct colliding pairs
	Results    int
}

// bandKey folds one band of a signature into its bucket key.
func bandKey(band, rows int, sig []uint64) uint64 {
	h := uint64(band) + 0x9e3779b97f4a7c15
	for r := 0; r < rows; r++ {
		h = splitmix(h ^ sig[band*rows+r])
	}
	return h
}

// Join finds pairs whose (estimated or verified) Ruzicka similarity is at
// least the threshold. It is approximate: pairs missed by every band are
// lost, and estimates carry sampling error.
func Join(sets []multiset.Multiset, cfg Config) ([]records.Pair, Stats, error) {
	var stats Stats
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	hasher := NewMinHasher(cfg.Bands*cfg.Rows, cfg.Seed)
	sigs := make([][]uint64, len(sets))
	for i, s := range sets {
		sigs[i] = hasher.Signature(s)
	}
	type pairKey struct{ a, b int }
	cands := make(map[pairKey]struct{})
	for band := 0; band < cfg.Bands; band++ {
		buckets := make(map[uint64][]int)
		for i, sig := range sigs {
			if sets[i].Cardinality() == 0 {
				continue
			}
			h := bandKey(band, cfg.Rows, sig)
			buckets[h] = append(buckets[h], i)
		}
		for _, members := range buckets {
			for x := 0; x < len(members); x++ {
				for y := x + 1; y < len(members); y++ {
					a, b := members[x], members[y]
					if a > b {
						a, b = b, a
					}
					cands[pairKey{a, b}] = struct{}{}
				}
			}
		}
	}
	stats.Candidates = len(cands)
	var out []records.Pair
	for pk := range cands {
		var sim float64
		if cfg.Verify {
			sim = similarity.Exact(similarity.Ruzicka{}, sets[pk.a], sets[pk.b])
		} else {
			sim = Estimate(sigs[pk.a], sigs[pk.b])
		}
		if sim+1e-12 >= cfg.Threshold {
			out = append(out, records.Pair{A: sets[pk.a].ID, B: sets[pk.b].ID, Sim: sim}.Canonical())
		}
	}
	records.SortPairs(out)
	stats.Results = len(out)
	return out, stats, nil
}

// Recall measures the fraction of truth pairs found by approx — the
// LSH-vs-exact comparison metric.
func Recall(approx, truth []records.Pair) float64 {
	if len(truth) == 0 {
		return 1
	}
	type key struct{ a, b multiset.ID }
	found := make(map[key]struct{}, len(approx))
	for _, p := range approx {
		found[key{p.A, p.B}] = struct{}{}
	}
	hit := 0
	for _, p := range truth {
		if _, ok := found[key{p.A, p.B}]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// SortSignature is a test helper exposing deterministic signature ordering.
func SortSignature(sig []uint64) {
	sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
}
