// Package similarity implements the Nominal Similarity Measures (NSMs)
// supported by the join framework, expressed over the two kinds of partial
// results the paper classifies:
//
//   - Unilateral partials Uni(Mi) — computable by scanning one entity.
//     All supported measures draw from UniStats{Card, UCard, SumSq}.
//   - Conjunctive partials Conj(Mi,Mj) — computable by scanning the
//     intersection U(Mi ∩ Mj). All supported measures draw from
//     ConjStats{SumMin, SumProd, Common}.
//
// Both structures are component-wise sums over elements, so they can be
// accumulated incrementally (and by MapReduce combiners). Disjunctive
// partials (needing a scan of the union, e.g. Σ|fi−fj|) are deliberately
// out of scope, exactly as in the paper.
package similarity

import (
	"fmt"
	"math"

	"vsmartjoin/internal/multiset"
)

// UniStats are the unilateral partial results of one entity.
// They are additive over elements: each element ⟨ak, f⟩ contributes
// (f, 1, f²).
type UniStats struct {
	Card  uint64 // |Mi| = Σ f
	UCard uint64 // |U(Mi)| = Σ 1
	SumSq uint64 // Σ f² (for vector cosine norms)
}

// AccumulateUni folds one element multiplicity into u.
func (u *UniStats) AccumulateUni(f uint32) {
	u.Card += uint64(f)
	u.UCard++
	u.SumSq += uint64(f) * uint64(f)
}

// Add merges another partial UniStats (combiner step).
func (u *UniStats) Add(v UniStats) {
	u.Card += v.Card
	u.UCard += v.UCard
	u.SumSq += v.SumSq
}

// UniOf computes UniStats with a single scan over the entity.
func UniOf(m multiset.Multiset) UniStats {
	var u UniStats
	for _, e := range m.Entries {
		u.AccumulateUni(e.Count)
	}
	return u
}

// ConjStats are the conjunctive partial results of a pair of entities.
// They are additive over shared elements: each shared element with
// multiplicities (fi, fj) contributes (min(fi,fj), fi·fj, 1).
type ConjStats struct {
	SumMin  uint64 // |Mi ∩ Mj| = Σ min(fi,fj)
	SumProd uint64 // Σ fi·fj (dot product)
	Common  uint64 // |U(Mi) ∩ U(Mj)| = Σ 1
}

// AccumulateConj folds one shared element into c.
func (c *ConjStats) AccumulateConj(fi, fj uint32) {
	if fi < fj {
		c.SumMin += uint64(fi)
	} else {
		c.SumMin += uint64(fj)
	}
	c.SumProd += uint64(fi) * uint64(fj)
	c.Common++
}

// Add merges another partial ConjStats (combiner step).
func (c *ConjStats) Add(d ConjStats) {
	c.SumMin += d.SumMin
	c.SumProd += d.SumProd
	c.Common += d.Common
}

// ConjOf computes ConjStats with a merge scan over the two entities'
// intersection.
func ConjOf(a, b multiset.Multiset) ConjStats {
	var c ConjStats
	i, j := 0, 0
	for i < len(a.Entries) && j < len(b.Entries) {
		switch {
		case a.Entries[i].Elem < b.Entries[j].Elem:
			i++
		case a.Entries[i].Elem > b.Entries[j].Elem:
			j++
		default:
			c.AccumulateConj(a.Entries[i].Count, b.Entries[j].Count)
			i++
			j++
		}
	}
	return c
}

// Measure is a commutative Nominal Similarity Measure computable from
// unilateral and conjunctive partial results — the F() of the paper's
// Eqn 1, specialized to the generic partials above.
type Measure interface {
	// Name is a stable identifier ("ruzicka", "dice", ...).
	Name() string
	// Sim combines the partials into the similarity value in [0, 1].
	Sim(a, b UniStats, c ConjStats) float64
}

// Exact computes Sim(a, b) directly from the two entities. It is the
// reference implementation used by sequential algorithms and tests.
func Exact(m Measure, a, b multiset.Multiset) float64 {
	return m.Sim(UniOf(a), UniOf(b), ConjOf(a, b))
}

// Ruzicka is the multiset generalization of Jaccard:
// |Mi∩Mj| / |Mi∪Mj| = Σmin / (|Mi|+|Mj|−Σmin).
type Ruzicka struct{}

func (Ruzicka) Name() string { return "ruzicka" }

func (Ruzicka) Sim(a, b UniStats, c ConjStats) float64 {
	denom := a.Card + b.Card - c.SumMin
	if denom == 0 {
		return 0
	}
	return float64(c.SumMin) / float64(denom)
}

// Jaccard is the set Jaccard similarity |U(Si)∩U(Sj)| / |U(Si)∪U(Sj)|,
// computed on underlying sets (multiplicities ignored).
type Jaccard struct{}

func (Jaccard) Name() string { return "jaccard" }

func (Jaccard) Sim(a, b UniStats, c ConjStats) float64 {
	denom := a.UCard + b.UCard - c.Common
	if denom == 0 {
		return 0
	}
	return float64(c.Common) / float64(denom)
}

// MultisetDice is 2·|Mi∩Mj| / (|Mi|+|Mj|).
type MultisetDice struct{}

func (MultisetDice) Name() string { return "dice" }

func (MultisetDice) Sim(a, b UniStats, c ConjStats) float64 {
	denom := a.Card + b.Card
	if denom == 0 {
		return 0
	}
	return 2 * float64(c.SumMin) / float64(denom)
}

// SetDice is 2·|U∩| / (|U(Si)|+|U(Sj)|).
type SetDice struct{}

func (SetDice) Name() string { return "set-dice" }

func (SetDice) Sim(a, b UniStats, c ConjStats) float64 {
	denom := a.UCard + b.UCard
	if denom == 0 {
		return 0
	}
	return 2 * float64(c.Common) / float64(denom)
}

// MultisetCosine is |Mi∩Mj| / sqrt(|Mi|·|Mj|), the multiset cosine of the
// paper (via the expanded set representation).
type MultisetCosine struct{}

func (MultisetCosine) Name() string { return "cosine" }

func (MultisetCosine) Sim(a, b UniStats, c ConjStats) float64 {
	denom := math.Sqrt(float64(a.Card) * float64(b.Card))
	if denom == 0 {
		return 0
	}
	return float64(c.SumMin) / denom
}

// SetCosine is |U∩| / sqrt(|U(Si)|·|U(Sj)|).
type SetCosine struct{}

func (SetCosine) Name() string { return "set-cosine" }

func (SetCosine) Sim(a, b UniStats, c ConjStats) float64 {
	denom := math.Sqrt(float64(a.UCard) * float64(b.UCard))
	if denom == 0 {
		return 0
	}
	return float64(c.Common) / denom
}

// VectorCosine is the standard vector cosine Σ fi·fj / (‖Mi‖₂·‖Mj‖₂),
// treating multiplicities as non-negative coordinates.
type VectorCosine struct{}

func (VectorCosine) Name() string { return "vector-cosine" }

func (VectorCosine) Sim(a, b UniStats, c ConjStats) float64 {
	// √(x·y), not √x·√y: the single correctly-rounded square root makes
	// Sim(a,a) exactly 1 (√(s²) == s for any float s), and the product
	// cannot overflow float64 (each factor is at most 2⁶⁴ ≈ 1.8e19).
	denom := math.Sqrt(float64(a.SumSq) * float64(b.SumSq))
	if denom == 0 {
		return 0
	}
	return float64(c.SumProd) / denom
}

// Overlap is |Mi∩Mj| / min(|Mi|,|Mj|), the multiset overlap coefficient.
type Overlap struct{}

func (Overlap) Name() string { return "overlap" }

func (Overlap) Sim(a, b UniStats, c ConjStats) float64 {
	denom := min(a.Card, b.Card)
	if denom == 0 {
		return 0
	}
	return float64(c.SumMin) / float64(denom)
}

// ByName resolves a measure identifier to its implementation.
func ByName(name string) (Measure, error) {
	for _, m := range All() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("similarity: unknown measure %q", name)
}

// All returns every built-in measure: the one list ByName resolves
// against and table-driven tests range over.
func All() []Measure {
	return []Measure{
		Ruzicka{}, Jaccard{}, MultisetDice{}, SetDice{},
		MultisetCosine{}, SetCosine{}, VectorCosine{}, Overlap{},
	}
}
