// Package core implements V-SMART-Join: the two-phase MapReduce framework
// for exact all-pair similarity joins of sets, multisets, and vectors.
//
// Phase 1 (joining) turns raw input tuples ⟨Mi, mi,k⟩ into joined tuples
// ⟨Mi, Uni(Mi), mi,k⟩ using one of three algorithms: Online-Aggregation
// (one MR step, requires secondary keys), Lookup (two steps, memory-bound
// side table), or Sharding (two steps, skew-aware, parameter C).
//
// Phase 2 (similarity) is shared: Similarity1 builds an inverted index
// augmented with Uni(.) values and emits candidate pairs with conjunctive
// partials; Similarity2 aggregates the partials with combiners and applies
// the measure's F() to produce ⟨Mi, Mj, Sim(Mi,Mj)⟩ for every pair at or
// above the threshold. Unless Config.NoLengthFilter asks for the paper's
// unpruned step, Similarity1 emits no tuple for a pair whose
// similarity.SimUpperBound over the two Uni(.) values is below the
// threshold, so such a pair never reaches the shuffle.
package core

import (
	"fmt"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/similarity"
)

// Record tags distinguishing Similarity1 output kinds. They are the first
// byte of the record key: ordinary candidate-pair tuples, and the flagged
// chunk-pair records produced by overloaded reducers (§4).
const (
	tagPair  = 0x00
	tagChunk = 0x01
)

func putUni(b *codec.Buffer, u similarity.UniStats) {
	b.PutUvarint(u.Card)
	b.PutUvarint(u.UCard)
	b.PutUvarint(u.SumSq)
}

func readUni(r *codec.Reader) similarity.UniStats {
	return similarity.UniStats{Card: r.Uvarint(), UCard: r.Uvarint(), SumSq: r.Uvarint()}
}

func putConj(b *codec.Buffer, c similarity.ConjStats) {
	b.PutUvarint(c.SumMin)
	b.PutUvarint(c.SumProd)
	b.PutUvarint(c.Common)
}

func readConj(r *codec.Reader) similarity.ConjStats {
	return similarity.ConjStats{SumMin: r.Uvarint(), SumProd: r.Uvarint(), Common: r.Uvarint()}
}

// Every encoder below appends to a caller-supplied buffer — in map and
// reduce functions the task's scratch (mr.TaskContext.Scratch), which the
// emitter copies from — so encoding a tuple allocates nothing. A UniStats
// partial as a value record is putUni alone.

func decodeUniVal(val []byte) (similarity.UniStats, error) {
	r := codec.NewReader(val)
	u := readUni(r)
	if err := r.Err(); err != nil {
		return similarity.UniStats{}, fmt.Errorf("core: bad uni val: %w", err)
	}
	return u, nil
}

// joined tuple ⟨Mi, Uni(Mi), mi,k⟩: key = Mi, val = Uni + elem + count.
func putJoinedVal(b *codec.Buffer, u similarity.UniStats, e multiset.Entry) {
	putUni(b, u)
	b.PutUvarint(uint64(e.Elem))
	b.PutUint32(e.Count)
}

func decodeJoinedVal(val []byte) (similarity.UniStats, multiset.Entry, error) {
	r := codec.NewReader(val)
	u := readUni(r)
	e := multiset.Entry{Elem: multiset.Elem(r.Uvarint()), Count: r.Uint32()}
	if err := r.Err(); err != nil {
		return similarity.UniStats{}, multiset.Entry{}, fmt.Errorf("core: bad joined val: %w", err)
	}
	return u, e, nil
}

// indexEntry is one posting of the inverted index built by Similarity1:
// a multiset id, its unilateral partials, and its multiplicity of the
// index element.
type indexEntry struct {
	ID    multiset.ID
	Uni   similarity.UniStats
	Count uint32
}

// Similarity1 map output: key = ak, val = (Mi, Uni, fi,k).
func putElemKey(b *codec.Buffer, e multiset.Elem) { b.PutUvarint(uint64(e)) }

func decodeElemKey(key []byte) (multiset.Elem, error) {
	r := codec.NewReader(key)
	e := multiset.Elem(r.Uvarint())
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("core: bad elem key: %w", err)
	}
	return e, nil
}

func putPostingVal(b *codec.Buffer, e indexEntry) {
	b.PutUvarint(uint64(e.ID))
	putUni(b, e.Uni)
	b.PutUint32(e.Count)
}

func readPosting(r *codec.Reader) indexEntry {
	return indexEntry{ID: multiset.ID(r.Uvarint()), Uni: readUni(r), Count: r.Uint32()}
}

func decodePostingVal(val []byte) (indexEntry, error) {
	r := codec.NewReader(val)
	e := readPosting(r)
	if err := r.Err(); err != nil {
		return indexEntry{}, fmt.Errorf("core: bad posting val: %w", err)
	}
	return e, nil
}

// candidate-pair tuple: key = tag + Mi + Mj + Uni(Mi) + Uni(Mj) (canonical
// Mi < Mj), val = partial ConjStats.
func putPairTupleKey(buf *codec.Buffer, a, b indexEntry) {
	if a.ID > b.ID {
		a, b = b, a
	}
	buf.PutByte(tagPair)
	buf.PutUvarint(uint64(a.ID))
	buf.PutUvarint(uint64(b.ID))
	putUni(buf, a.Uni)
	putUni(buf, b.Uni)
}

type pairKey struct {
	A, B       multiset.ID
	UniA, UniB similarity.UniStats
}

func decodePairTupleKey(key []byte) (pairKey, error) {
	r := codec.NewReader(key)
	if tag := r.Byte(); tag != tagPair {
		return pairKey{}, fmt.Errorf("core: pair tuple has tag %d", tag)
	}
	k := pairKey{
		A: multiset.ID(r.Uvarint()), B: multiset.ID(r.Uvarint()),
	}
	k.UniA = readUni(r)
	k.UniB = readUni(r)
	if err := r.Err(); err != nil {
		return pairKey{}, fmt.Errorf("core: bad pair key: %w", err)
	}
	return k, nil
}

func decodeConjVal(val []byte) (similarity.ConjStats, error) {
	r := codec.NewReader(val)
	c := readConj(r)
	if err := r.Err(); err != nil {
		return similarity.ConjStats{}, fmt.Errorf("core: bad conj val: %w", err)
	}
	return c, nil
}

// conjOfCounts is the per-element contribution to Conj(Mi, Mj).
func conjOfCounts(fi, fj uint32) similarity.ConjStats {
	var c similarity.ConjStats
	c.AccumulateConj(fi, fj)
	return c
}

// chunk-pair record: key = tag + ak + p + q (p ≤ q), val = both chunks'
// postings (right side empty when p == q).
func putChunkKey(b *codec.Buffer, elem multiset.Elem, p, q int) {
	b.PutByte(tagChunk)
	b.PutUvarint(uint64(elem))
	b.PutUvarint(uint64(p))
	b.PutUvarint(uint64(q))
}

func putChunkVal(b *codec.Buffer, left, right []indexEntry) {
	b.PutUvarint(uint64(len(left)))
	for _, e := range left {
		putPostingVal(b, e)
	}
	b.PutUvarint(uint64(len(right)))
	for _, e := range right {
		putPostingVal(b, e)
	}
}

func decodeChunkVal(val []byte) (left, right []indexEntry, err error) {
	r := codec.NewReader(val)
	readSide := func() []indexEntry {
		n := r.Uvarint()
		if n > uint64(r.Remaining()) {
			// A posting is at least 5 bytes, so the count can only be
			// corrupt; refusing it here keeps it from sizing the slice.
			err = fmt.Errorf("core: bad chunk val: %d postings in %d bytes", n, r.Remaining())
			return nil
		}
		out := make([]indexEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			out = append(out, readPosting(r))
		}
		return out
	}
	left = readSide()
	right = readSide()
	if err == nil && r.Err() != nil {
		err = fmt.Errorf("core: bad chunk val: %w", r.Err())
	}
	if err != nil {
		return nil, nil, err
	}
	return left, right, nil
}
