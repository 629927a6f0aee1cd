package core

import (
	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
)

// stopWordMapper inverts raw tuples to be keyed by element:
// ⟨Mi, mi,k⟩ → ⟨ak, (Mi, fi,k)⟩.
type stopWordMapper struct{}

func (stopWordMapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	id, err := records.DecodeRawKey(rec.Key)
	if err != nil {
		return err
	}
	entry, err := records.DecodeRawVal(rec.Val)
	if err != nil {
		return err
	}
	if entry.Count == 0 {
		return nil
	}
	key, val := ctx.Scratch()
	putElemKey(key, entry.Elem)
	val.PutUvarint(uint64(id))
	val.PutUint32(entry.Count)
	emit.Emit(key.Bytes(), val.Bytes())
	return nil
}

// stopWordReducer buffers the first q multisets of an element's list and
// re-emits the raw tuples only if the list was exhausted within q —
// elements shared by more than q multisets are "stop words" and dropped
// entirely (§4). The buffer is charged against the memory budget, so the
// preprocessing reducer's footprint is O(q), as the paper intends.
type stopWordReducer struct {
	q int
}

func (r stopWordReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	elem, err := decodeElemKey(key)
	if err != nil {
		return err
	}
	type pending struct {
		id    multiset.ID
		count uint32
	}
	buf := make([]pending, 0, r.q)
	var reserved int64
	defer func() { ctx.Release(reserved) }()
	exhausted := true
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		if len(buf) >= r.q {
			exhausted = false
			break
		}
		rd := codec.NewReader(v.Val)
		p := pending{id: multiset.ID(rd.Uvarint()), count: rd.Uint32()}
		if err := rd.Err(); err != nil {
			return err
		}
		sz := int64(len(v.Val)) + 6
		if err := ctx.Reserve(sz); err != nil {
			return err
		}
		reserved += sz
		buf = append(buf, p)
	}
	if !exhausted {
		ctx.Counters.Inc(CounterStopWords)
		return nil
	}
	for _, p := range buf {
		emitRaw(ctx, p.id, multiset.Entry{Elem: elem, Count: p.count}, emit)
	}
	return nil
}

// emitRaw emits one raw tuple ⟨Mi, mi,k⟩.
func emitRaw(ctx *mr.TaskContext, id multiset.ID, e multiset.Entry, emit mr.Emitter) {
	key, val := ctx.Scratch()
	records.PutRawKey(key, id)
	records.PutRawVal(val, e)
	emit.Emit(key.Bytes(), val.Bytes())
}

// StopWordJob builds the preprocessing step that discards elements shared
// by more than q multisets. Its output is a raw-tuple dataset.
func StopWordJob(input *mrfs.Dataset, q, numReducers int) mr.Job {
	return mr.Job{
		Name:        "stop-words",
		Input:       input,
		Mapper:      stopWordMapper{},
		Reducer:     stopWordReducer{q: q},
		NumReducers: numReducers,
		OutputName:  "filtered",
	}
}
