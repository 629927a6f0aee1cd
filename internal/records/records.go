// Package records defines the record formats shared by all join algorithms:
// the raw input tuples ⟨Mi, mi,k⟩ that datasets are made of, and the final
// output pairs ⟨Mi, Mj, Sim(Mi,Mj)⟩.
package records

import (
	"fmt"
	"sort"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
)

// PutRawKey appends the multiset identifier key of a raw tuple to b.
func PutRawKey(b *codec.Buffer, id multiset.ID) { b.PutUvarint(uint64(id)) }

// DecodeRawKey decodes a multiset identifier key.
func DecodeRawKey(key []byte) (multiset.ID, error) {
	r := codec.NewReader(key)
	id := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("records: bad raw key: %w", err)
	}
	return multiset.ID(id), nil
}

// PutRawVal appends the ⟨ak, fi,k⟩ payload of a raw tuple to b.
func PutRawVal(b *codec.Buffer, e multiset.Entry) {
	b.PutUvarint(uint64(e.Elem))
	b.PutUint32(e.Count)
}

// DecodeRawVal decodes a raw tuple payload.
func DecodeRawVal(val []byte) (multiset.Entry, error) {
	r := codec.NewReader(val)
	e := multiset.Entry{Elem: multiset.Elem(r.Uvarint()), Count: r.Uint32()}
	if err := r.Err(); err != nil {
		return multiset.Entry{}, fmt.Errorf("records: bad raw val: %w", err)
	}
	return e, nil
}

// BuildInput flattens multisets into a raw-tuple dataset striped over the
// given number of partitions: one record per ⟨Mi, mi,k⟩, exactly the input
// representation of the paper's joining phase.
func BuildInput(name string, sets []multiset.Multiset, partitions int) *mrfs.Dataset {
	d := mrfs.NewDataset(name, partitions)
	var key, val codec.Buffer
	i := 0
	for _, m := range sets {
		key.Reset()
		PutRawKey(&key, m.ID)
		for _, e := range m.Entries {
			val.Reset()
			PutRawVal(&val, e)
			// Both fields are a few varints: Append cannot find them too large.
			_ = d.Partition(i%d.NumPartitions()).Append(key.Bytes(), nil, val.Bytes())
			i++
		}
	}
	return d
}

// DecodeInput reconstructs the multisets of a raw-tuple dataset (test and
// tooling helper; duplicate ⟨Mi, ak⟩ tuples have their counts summed).
func DecodeInput(d *mrfs.Dataset) ([]multiset.Multiset, error) {
	byID := make(map[multiset.ID][]multiset.Entry)
	for _, rec := range d.All() {
		id, err := DecodeRawKey(rec.Key)
		if err != nil {
			return nil, err
		}
		e, err := DecodeRawVal(rec.Val)
		if err != nil {
			return nil, err
		}
		byID[id] = append(byID[id], e)
	}
	ids := make([]multiset.ID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]multiset.Multiset, 0, len(ids))
	for _, id := range ids {
		out = append(out, multiset.New(id, byID[id]))
	}
	return out, nil
}

// Pair is one similar pair of the join result, canonically ordered A < B.
type Pair struct {
	A, B multiset.ID
	Sim  float64
}

// Canonical returns p with A ≤ B.
func (p Pair) Canonical() Pair {
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	return p
}

// PutPairKey appends a result pair key to buf.
func PutPairKey(buf *codec.Buffer, a, b multiset.ID) {
	buf.PutUvarint(uint64(a))
	buf.PutUvarint(uint64(b))
}

// PutPairVal appends a result similarity value to buf.
func PutPairVal(buf *codec.Buffer, sim float64) { buf.PutFloat64(sim) }

// DecodePair decodes one result record.
func DecodePair(rec mrfs.Record) (Pair, error) {
	r := codec.NewReader(rec.Key)
	a := multiset.ID(r.Uvarint())
	b := multiset.ID(r.Uvarint())
	if err := r.Err(); err != nil {
		return Pair{}, fmt.Errorf("records: bad pair key: %w", err)
	}
	v := codec.NewReader(rec.Val)
	sim := v.Float64()
	if err := v.Err(); err != nil {
		return Pair{}, fmt.Errorf("records: bad pair val: %w", err)
	}
	return Pair{A: a, B: b, Sim: sim}, nil
}

// DecodePairs decodes and canonically sorts a result dataset.
func DecodePairs(d *mrfs.Dataset) ([]Pair, error) {
	out := make([]Pair, 0, d.NumRecords())
	for _, rec := range d.All() {
		p, err := DecodePair(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Canonical())
	}
	SortPairs(out)
	return out, nil
}

// SortPairs orders pairs by (A, B).
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// SamePairs reports whether two canonical sorted pair slices contain the
// same pairs with similarities equal within eps.
func SamePairs(a, b []Pair, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B {
			return false
		}
		d := a[i].Sim - b[i].Sim
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}
