package core

import (
	"fmt"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Algorithm selects the joining-phase implementation (§5).
type Algorithm int

const (
	// OnlineAggregation computes Uni(Mi) and joins it to the elements in a
	// single MR step using secondary keys (unsupported on Hadoop).
	OnlineAggregation Algorithm = iota
	// Lookup computes the Mi → Uni(Mi) table in one step and joins it via
	// an in-memory side table in the next; the table must fit in memory.
	Lookup
	// Sharding splits entities by underlying cardinality: the few huge
	// ("sharded") ones are joined via a small side table, the rest are
	// aggregated in memory per reducer. Parameter C sets the split.
	Sharding
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case OnlineAggregation:
		return "online-aggregation"
	case Lookup:
		return "lookup"
	case Sharding:
		return "sharding"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// uniSingleton is the per-tuple contribution of one element to Uni(Mi).
func uniSingleton(count uint32) similarity.UniStats {
	var u similarity.UniStats
	u.AccumulateUni(count)
	return u
}

// ---------------------------------------------------------------------------
// Online-Aggregation (§5.1)
// ---------------------------------------------------------------------------

var (
	secUni  = []byte{0} // secondary key 0: Uni partials arrive first
	secElem = []byte{1} // secondary key 1: the elements follow
)

// oaMapper emits, for every raw tuple, the Uni contribution under secondary
// key 0 and the tuple itself under secondary key 1 (mapOnline-Aggregation1).
type oaMapper struct{}

func (oaMapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	entry, err := records.DecodeRawVal(rec.Val)
	if err != nil {
		return err
	}
	if entry.Count == 0 {
		return nil
	}
	_, val := ctx.Scratch()
	putUni(val, uniSingleton(entry.Count))
	emit.EmitSec(rec.Key, secUni, val.Bytes())
	emit.EmitSec(rec.Key, secElem, rec.Val)
	return nil
}

// oaCombiner pre-sums the secondary-key-0 Uni partials of each map task
// and passes the element tuples through unchanged. The sorted secondary
// keys deliver the partials first, so their sum goes out ahead of the
// first element and the combined list is still in shuffle order.
type oaCombiner struct{}

func (oaCombiner) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	var uni similarity.UniStats
	pendingUni := false
	flushUni := func() {
		if pendingUni {
			_, val := ctx.Scratch()
			putUni(val, uni)
			emit.EmitSec(key, secUni, val.Bytes())
			pendingUni = false
		}
	}
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		if len(v.Sec) == 1 && v.Sec[0] == 0 {
			u, err := decodeUniVal(v.Val)
			if err != nil {
				return err
			}
			uni.Add(u)
			pendingUni = true
			continue
		}
		flushUni()
		emit.EmitSec(key, secElem, v.Val)
	}
	flushUni()
	return nil
}

// oaReducer streams the value list: the sorted secondary keys deliver all
// Uni partials first, so Uni(Mi) is complete before the first element
// arrives, and joined tuples are emitted without buffering anything
// (reduceOnline-Aggregation1).
type oaReducer struct{}

func (oaReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	var uni similarity.UniStats
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		if len(v.Sec) == 1 && v.Sec[0] == 0 {
			u, err := decodeUniVal(v.Val)
			if err != nil {
				return err
			}
			uni.Add(u)
			continue
		}
		entry, err := records.DecodeRawVal(v.Val)
		if err != nil {
			return err
		}
		_, val := ctx.Scratch()
		putJoinedVal(val, uni, entry)
		emit.Emit(key, val.Bytes())
	}
	return nil
}

// onlineAggregationJob is the single joining step of Online-Aggregation.
func onlineAggregationJob(input *mrfs.Dataset, numReducers int) mr.Job {
	return mr.Job{
		Name:              "online-aggregation",
		Input:             input,
		Mapper:            oaMapper{},
		Combiner:          oaCombiner{},
		Reducer:           oaReducer{},
		NumReducers:       numReducers,
		UsesSecondaryKeys: true,
		OutputName:        "joined",
	}
}

// ---------------------------------------------------------------------------
// Lookup (§5.2)
// ---------------------------------------------------------------------------

// uniMapper emits the Uni contribution of each raw tuple keyed by Mi
// (mapLookup1 / mapSharding1).
type uniMapper struct{}

func (uniMapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	entry, err := records.DecodeRawVal(rec.Val)
	if err != nil {
		return err
	}
	if entry.Count == 0 {
		return nil
	}
	_, val := ctx.Scratch()
	putUni(val, uniSingleton(entry.Count))
	emit.Emit(rec.Key, val.Bytes())
	return nil
}

// uniSumReducer sums Uni partials; shared by the Lookup1 reducer and the
// dedicated combiners of Lookup1/Sharding1.
type uniSumReducer struct{}

func (uniSumReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	var uni similarity.UniStats
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		u, err := decodeUniVal(v.Val)
		if err != nil {
			return err
		}
		uni.Add(u)
	}
	_, val := ctx.Scratch()
	putUni(val, uni)
	emit.Emit(key, val.Bytes())
	return nil
}

// lookup1Job computes the Mi → Uni(Mi) table.
func lookup1Job(input *mrfs.Dataset, numReducers int) mr.Job {
	return mr.Job{
		Name:        "lookup1",
		Input:       input,
		Mapper:      uniMapper{},
		Combiner:    uniSumReducer{},
		Reducer:     uniSumReducer{},
		NumReducers: numReducers,
		OutputName:  "uni-table",
	}
}

// uniTable is an in-memory Mi → Uni(Mi) lookup built from a side input.
type uniTable map[multiset.ID]similarity.UniStats

func loadUniTable(d *mrfs.Dataset) (uniTable, error) {
	t := make(uniTable, d.NumRecords())
	for _, rec := range d.All() {
		id, err := records.DecodeRawKey(rec.Key)
		if err != nil {
			return nil, err
		}
		u, err := decodeUniVal(rec.Val)
		if err != nil {
			return nil, err
		}
		t[id] = u
	}
	return t, nil
}

// lookupSim1Mapper is the fused Lookup2 + Similarity1 map stage: it joins
// each raw tuple to Uni(Mi) through the side table and keys the output by
// element, so the Similarity1 reducer can consume it directly (§5.2).
type lookupSim1Mapper struct {
	table uniTable
}

func (m *lookupSim1Mapper) Setup(ctx *mr.TaskContext) error {
	t, err := loadUniTable(ctx.Side["uni-table"])
	if err != nil {
		return err
	}
	m.table = t
	return nil
}

func (m *lookupSim1Mapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
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
	uni, ok := m.table[id]
	if !ok {
		return fmt.Errorf("core: lookup miss for multiset %d", id)
	}
	emitPosting(ctx, entry.Elem, indexEntry{ID: id, Uni: uni, Count: entry.Count}, emit)
	return nil
}

// lookup2Job is the fused Lookup2 map + Similarity1 reduce step.
func lookup2Job(input *mrfs.Dataset, table *mrfs.Dataset, f lengthFilter, numReducers int) mr.Job {
	return mr.Job{
		Name:        "lookup2+similarity1",
		Input:       input,
		Mapper:      &lookupSim1Mapper{},
		Reducer:     sim1Reducer{filter: f},
		NumReducers: numReducers,
		SideInputs:  map[string]*mrfs.Dataset{"uni-table": table},
		OutputName:  "sim1-pairs",
	}
}

// ---------------------------------------------------------------------------
// Sharding (§5.3)
// ---------------------------------------------------------------------------

// DefaultShardC is the default underlying-cardinality split; the paper's
// sensitivity analysis found the total run time flat in C with a shallow
// minimum around 1000.
const DefaultShardC = 1024

// sharding1Reducer sums Uni partials but only emits the table entry for
// multisets whose underlying cardinality exceeds C (reduceSharding1).
type sharding1Reducer struct {
	c uint64
}

func (r sharding1Reducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	var uni similarity.UniStats
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		u, err := decodeUniVal(v.Val)
		if err != nil {
			return err
		}
		uni.Add(u)
	}
	if uni.UCard > r.c {
		_, val := ctx.Scratch()
		putUni(val, uni)
		emit.Emit(key, val.Bytes())
	}
	return nil
}

// sharding1Job computes the sharded-multiset Uni table.
func sharding1Job(input *mrfs.Dataset, c int, numReducers int) mr.Job {
	return mr.Job{
		Name:        "sharding1",
		Input:       input,
		Mapper:      uniMapper{},
		Combiner:    uniSumReducer{},
		Reducer:     sharding1Reducer{c: uint64(c)},
		NumReducers: numReducers,
		OutputName:  "shard-table",
	}
}

const (
	shardTagUnsharded = 0x00
	shardTagSharded   = 0x01
)

// fingerprint spreads a sharded multiset's elements over reducers; the
// paper keys sharded tuples by ⟨Mi, fingerprint(ak)⟩ to distribute the
// load randomly among all the reducers.
func fingerprint(e multiset.Elem) uint64 {
	return multiset.Mix64(uint64(e)) & 0xffff
}

func putShardKey(b *codec.Buffer, key []byte, fp uint64, sharded bool) {
	b.PutRaw(key)
	if sharded {
		b.PutUvarint(fp + 1)
	} else {
		b.PutUvarint(0)
	}
}

func decodeShardKeyID(key []byte) (multiset.ID, error) {
	r := codec.NewReader(key)
	id := multiset.ID(r.Uvarint())
	_ = r.Uvarint() // fingerprint marker
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("core: bad shard key: %w", err)
	}
	return id, nil
}

func putShardVal(b *codec.Buffer, tag byte, uni similarity.UniStats, entry multiset.Entry) {
	b.PutByte(tag)
	if tag == shardTagSharded {
		putUni(b, uni)
	}
	b.PutUvarint(uint64(entry.Elem))
	b.PutUint32(entry.Count)
}

func decodeShardVal(val []byte) (byte, similarity.UniStats, multiset.Entry, error) {
	r := codec.NewReader(val)
	tag := r.Byte()
	var uni similarity.UniStats
	if tag == shardTagSharded {
		uni = readUni(r)
	}
	entry := multiset.Entry{Elem: multiset.Elem(r.Uvarint()), Count: r.Uint32()}
	if err := r.Err(); err != nil {
		return 0, similarity.UniStats{}, multiset.Entry{}, fmt.Errorf("core: bad shard val: %w", err)
	}
	return tag, uni, entry, nil
}

// sharding2Mapper joins raw tuples against the sharded table: hits carry
// their Uni and a per-element fingerprint key (spreading one huge multiset
// over many reducers); misses are keyed ⟨Mi, −1⟩ so the whole multiset
// meets at a single reducer (mapSharding2).
type sharding2Mapper struct {
	table uniTable
}

func (m *sharding2Mapper) Setup(ctx *mr.TaskContext) error {
	t, err := loadUniTable(ctx.Side["shard-table"])
	if err != nil {
		return err
	}
	m.table = t
	return nil
}

func (m *sharding2Mapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
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
	if uni, ok := m.table[id]; ok {
		putShardKey(key, rec.Key, fingerprint(entry.Elem), true)
		putShardVal(val, shardTagSharded, uni, entry)
	} else {
		putShardKey(key, rec.Key, 0, false)
		putShardVal(val, shardTagUnsharded, similarity.UniStats{}, entry)
	}
	emit.Emit(key.Bytes(), val.Bytes())
	return nil
}

// sharding2Reducer outputs joined tuples. Sharded groups already carry
// Uni(Mi): strip the fingerprint and emit. Unsharded groups fit in memory:
// scan once to compute Uni(Mi), rewind, and emit joined tuples
// (reduceSharding2).
type sharding2Reducer struct{}

func (sharding2Reducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	id, err := decodeShardKeyID(key)
	if err != nil {
		return err
	}
	outKey, val := ctx.Scratch()
	records.PutRawKey(outKey, id)
	emitJoined := func(uni similarity.UniStats, entry multiset.Entry) {
		val.Reset()
		putJoinedVal(val, uni, entry)
		emit.Emit(outKey.Bytes(), val.Bytes())
	}
	first, ok := values.Next()
	if !ok {
		return nil
	}
	tag, uni, entry, err := decodeShardVal(first.Val)
	if err != nil {
		return err
	}
	if tag == shardTagSharded {
		emitJoined(uni, entry)
		for {
			v, ok := values.Next()
			if !ok {
				return nil
			}
			_, uni, entry, err := decodeShardVal(v.Val)
			if err != nil {
				return err
			}
			emitJoined(uni, entry)
		}
	}
	// Unsharded: |U(Mi)| ≤ C, so the list fits in memory. Buffer it
	// (charged against the budget), computing Uni on the first pass and
	// emitting on the second.
	if err := ctx.Reserve(values.Bytes()); err != nil {
		return fmt.Errorf("core: unsharded multiset %d does not fit in memory: %w", id, err)
	}
	defer ctx.Release(values.Bytes())
	var total similarity.UniStats
	total.AccumulateUni(entry.Count)
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		_, _, e, err := decodeShardVal(v.Val)
		if err != nil {
			return err
		}
		total.AccumulateUni(e.Count)
	}
	values.Rewind()
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		_, _, e, err := decodeShardVal(v.Val)
		if err != nil {
			return err
		}
		emitJoined(total, e)
	}
	return nil
}

// sharding2Job joins Uni values to elements for both shard classes.
func sharding2Job(input *mrfs.Dataset, table *mrfs.Dataset, numReducers int) mr.Job {
	return mr.Job{
		Name:        "sharding2",
		Input:       input,
		Mapper:      &sharding2Mapper{},
		Reducer:     sharding2Reducer{},
		NumReducers: numReducers,
		SideInputs:  map[string]*mrfs.Dataset{"shard-table": table},
		OutputName:  "joined",
	}
}
