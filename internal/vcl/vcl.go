// Package vcl implements the paper's baseline: the VCL algorithm
// (Vernica, Carey, Li — SIGMOD 2010), a MapReduce adaptation of
// prefix-filtered set-similarity join, generalized to multisets through
// the expanded set representation (§6.2).
//
// The pipeline is:
//
//  1. frequency: count element frequencies (the alphabet ordering scan).
//  2. capsule: group raw tuples into whole-multiset records — VCL reads,
//     processes, and replicates entire multisets as indivisible capsules.
//  3. kernel: each mapper loads the full frequency-sorted alphabet into
//     memory, computes each multiset's prefix, and replicates the whole
//     multiset once per prefix element; each reducer computes the exact
//     similarity of every pair of capsules sharing that prefix element.
//  4. dedup: pairs are produced once per shared prefix element and
//     deduplicated in a postprocessing job.
//
// The structural inefficiencies the paper reports are faithfully present:
// the kernel map output is |Prefix(Mi)| × |U(Mi)| per multiset and cannot
// be combined away; the alphabet must fit in every mapper's memory (the
// HashOrder fallback removes the table, as the paper's modification did);
// whole multisets must fit in memory.
package vcl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Counter names exported by the VCL pipeline.
const (
	CounterReplicatedTuples = "vcl:replicated_tuples" // capsule copies emitted by the kernel map
	CounterPairsComputed    = "vcl:pairs_computed"    // pairwise similarity evaluations (pre-dedup)
	CounterDedupedPairs     = "vcl:deduped_pairs"
)

// Config parameterizes a VCL run.
type Config struct {
	// Measure must be Ruzicka (multisets, via expansion) or Jaccard
	// (underlying sets): the prefix bound is only valid for them.
	Measure similarity.Measure
	// Threshold is the similarity cut-off t.
	Threshold float64
	// HashOrder orders the alphabet by hash signature instead of
	// frequency, removing the in-memory frequency table — the paper's
	// modification for alphabets that do not fit in memory.
	HashOrder bool
	// NumReducers overrides the reduce task count (0 = cluster machines).
	NumReducers int
}

// Result is the outcome of a VCL run.
type Result struct {
	Pairs  []records.Pair
	Output *mrfs.Dataset
	Stats  mr.PipelineStats
	// KernelMapSeconds is the kernel job's map-stage simulated time — the
	// paper reports ≥86% of VCL's total run time is spent there.
	KernelMapSeconds float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Measure == nil {
		return errors.New("vcl: Config.Measure is required")
	}
	switch c.Measure.(type) {
	case similarity.Ruzicka, similarity.Jaccard:
	default:
		return fmt.Errorf("vcl: measure %q unsupported (prefix bound requires ruzicka or jaccard)", c.Measure.Name())
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("vcl: threshold %v outside (0,1]", c.Threshold)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Job 1: element frequencies
// ---------------------------------------------------------------------------

type freqMapper struct{}

func (freqMapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	entry, err := records.DecodeRawVal(rec.Val)
	if err != nil {
		return err
	}
	if entry.Count == 0 {
		return nil
	}
	key, one := ctx.Scratch()
	key.PutUvarint(uint64(entry.Elem))
	one.PutUvarint(1)
	emit.Emit(key.Bytes(), one.Bytes())
	return nil
}

type freqSumReducer struct{}

func (freqSumReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	var total uint64
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		r := codec.NewReader(v.Val)
		total += r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
	}
	_, val := ctx.Scratch()
	val.PutUvarint(total)
	emit.Emit(key, val.Bytes())
	return nil
}

func frequencyJob(input *mrfs.Dataset, numReducers int) mr.Job {
	return mr.Job{
		Name:        "vcl-frequency",
		Input:       input,
		Mapper:      freqMapper{},
		Combiner:    freqSumReducer{},
		Reducer:     freqSumReducer{},
		NumReducers: numReducers,
		OutputName:  "vcl-freqs",
	}
}

// ---------------------------------------------------------------------------
// Job 2: capsules (whole multisets as single records)
// ---------------------------------------------------------------------------

func putCapsule(b *codec.Buffer, entries []multiset.Entry) {
	b.PutUvarint(uint64(len(entries)))
	for _, e := range entries {
		b.PutUvarint(uint64(e.Elem))
		b.PutUint32(e.Count)
	}
}

func decodeCapsule(val []byte) ([]multiset.Entry, error) {
	r := codec.NewReader(val)
	n := r.Uvarint()
	out := make([]multiset.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, multiset.Entry{Elem: multiset.Elem(r.Uvarint()), Count: r.Uint32()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vcl: bad capsule: %w", err)
	}
	return out, nil
}

// capsuleReducer buffers a whole multiset — VCL's indivisible unit — in
// memory and emits it as one record.
type capsuleReducer struct{}

func (capsuleReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	if err := ctx.Reserve(values.Bytes()); err != nil {
		id, _ := records.DecodeRawKey(key)
		return fmt.Errorf("vcl: multiset %d does not fit in memory as a capsule: %w", id, err)
	}
	defer ctx.Release(values.Bytes())
	entries := make([]multiset.Entry, 0, values.Len())
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		e, err := records.DecodeRawVal(v.Val)
		if err != nil {
			return err
		}
		if e.Count > 0 {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Elem < entries[j].Elem })
	_, val := ctx.Scratch()
	putCapsule(val, entries)
	emit.Emit(key, val.Bytes())
	return nil
}

func capsuleJob(input *mrfs.Dataset, numReducers int) mr.Job {
	return mr.Job{
		Name:        "vcl-capsule",
		Input:       input,
		Mapper:      mr.IdentityMapper{},
		Reducer:     capsuleReducer{},
		NumReducers: numReducers,
		OutputName:  "vcl-capsules",
	}
}

// ---------------------------------------------------------------------------
// Job 3: kernel (prefix replication + pairwise verification)
// ---------------------------------------------------------------------------

// expandedItem is one item of a multiset's expanded set representation,
// carrying its global sort rank.
type expandedItem struct {
	elem multiset.Elem
	copy uint32
	rank uint64
}

// hashRank is the hash-signature ordering: the element pre-mixed with
// the FNV prime, plus the copy, through multiset.Mix64.
func hashRank(e multiset.Elem, copy uint32) uint64 {
	return multiset.Mix64(uint64(e)*0x100000001b3 + uint64(copy))
}

// kernelMapper replicates each multiset capsule once per prefix element of
// its expanded set representation (mapVCL).
type kernelMapper struct {
	threshold float64
	hashOrder bool
	jaccard   bool // binarize counts (underlying sets)
	freqs     map[multiset.Elem]uint64
}

func (m *kernelMapper) Setup(ctx *mr.TaskContext) error {
	if m.hashOrder {
		return nil
	}
	// Load the full alphabet, frequency-sorted, into memory — the paper's
	// scalability bottleneck. The engine has already charged the side
	// bytes against the memory budget.
	freqDS, ok := ctx.Side["vcl-freqs"]
	if !ok {
		return errors.New("vcl: kernel mapper missing frequency side input")
	}
	m.freqs = make(map[multiset.Elem]uint64, freqDS.NumRecords())
	for _, rec := range freqDS.All() {
		r := codec.NewReader(rec.Key)
		elem := multiset.Elem(r.Uvarint())
		if err := r.Err(); err != nil {
			return err
		}
		v := codec.NewReader(rec.Val)
		m.freqs[elem] = v.Uvarint()
		if err := v.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (m *kernelMapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	entries, err := decodeCapsule(rec.Val)
	if err != nil {
		return err
	}
	if m.jaccard {
		for i := range entries {
			entries[i].Count = 1
		}
	}
	// Expanded set representation, each item with its global rank.
	var items []expandedItem
	for _, e := range entries {
		for c := uint32(1); c <= e.Count; c++ {
			var rank uint64
			if m.hashOrder {
				rank = hashRank(e.Elem, c)
			} else {
				// (frequency, copy desc, elem) packed: rarer first. Copies
				// beyond the first are rarer than the element itself.
				rank = m.freqs[e.Elem]<<16 | uint64(c&0xffff)
			}
			items = append(items, expandedItem{elem: e.Elem, copy: c, rank: rank})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].rank != items[j].rank {
			return items[i].rank < items[j].rank
		}
		if items[i].elem != items[j].elem {
			return items[i].elem < items[j].elem
		}
		return items[i].copy < items[j].copy
	})
	size := len(items)
	if size == 0 {
		return nil
	}
	p := size - int(math.Ceil(m.threshold*float64(size)-1e-9)) + 1
	if p < 1 {
		p = 1
	}
	if p > size {
		p = size
	}
	// The whole multiset rides along with every prefix element: the value
	// carries the multiset id so the reducer can reconstruct it.
	key, val := ctx.Scratch()
	val.PutRaw(rec.Key)
	val.PutByte(0)
	val.PutRaw(rec.Val)
	for i := 0; i < p; i++ {
		key.Reset()
		key.PutUvarint(uint64(items[i].elem))
		key.PutUint32(items[i].copy)
		emit.Emit(key.Bytes(), val.Bytes())
		ctx.Counters.Inc(CounterReplicatedTuples)
	}
	return nil
}

// kernelReducer computes the exact similarity of every pair of capsules
// sharing a prefix element (reduceVCL). The whole list must fit in memory.
type kernelReducer struct {
	measure   similarity.Measure
	threshold float64
}

func (r kernelReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	if err := ctx.Reserve(values.Bytes()); err != nil {
		return fmt.Errorf("vcl: kernel reduce list does not fit in memory: %w", err)
	}
	defer ctx.Release(values.Bytes())
	type capsule struct {
		id  multiset.ID
		set multiset.Multiset
		uni similarity.UniStats
	}
	var caps []capsule
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		// Value layout: raw key bytes, 0 separator... the raw key is a
		// uvarint with no embedded zero byte except the value 0 itself;
		// decode defensively via a reader instead.
		rd := codec.NewReader(v.Val)
		id := multiset.ID(rd.Uvarint())
		if rd.Byte() != 0 {
			return errors.New("vcl: bad kernel value separator")
		}
		rest := v.Val[len(v.Val)-rd.Remaining():]
		entries, err := decodeCapsule(rest)
		if err != nil {
			return err
		}
		ms := multiset.Multiset{ID: id, Entries: entries}
		caps = append(caps, capsule{id: id, set: ms, uni: similarity.UniOf(ms)})
	}
	for i := 0; i < len(caps); i++ {
		for j := i + 1; j < len(caps); j++ {
			if caps[i].id == caps[j].id {
				continue
			}
			conj := similarity.ConjOf(caps[i].set, caps[j].set)
			sim := r.measure.Sim(caps[i].uni, caps[j].uni, conj)
			ctx.Counters.Inc(CounterPairsComputed)
			// A pairwise merge scans both capsules — work the engine
			// cannot see from record counts alone.
			ctx.ChargeCompute(1 + int64(len(caps[i].set.Entries)+len(caps[j].set.Entries))/16)
			if sim+1e-12 >= r.threshold {
				a, b := caps[i].id, caps[j].id
				if a > b {
					a, b = b, a
				}
				key, val := ctx.Scratch()
				records.PutPairKey(key, a, b)
				records.PutPairVal(val, sim)
				emit.Emit(key.Bytes(), val.Bytes())
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Job 4: dedup
// ---------------------------------------------------------------------------

type dedupReducer struct{}

func (dedupReducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	v, ok := values.Next()
	if !ok {
		return nil
	}
	emit.Emit(key, v.Val)
	ctx.Counters.Inc(CounterDedupedPairs)
	return nil
}

func dedupJob(input *mrfs.Dataset, numReducers int) mr.Job {
	return mr.Job{
		Name:        "vcl-dedup",
		Input:       input,
		Mapper:      mr.IdentityMapper{},
		Reducer:     dedupReducer{},
		NumReducers: numReducers,
		OutputName:  "vcl-pairs",
	}
}

// Join runs the full VCL pipeline on a raw-tuple dataset.
func Join(cluster mr.ClusterConfig, input *mrfs.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	_, isJaccard := cfg.Measure.(similarity.Jaccard)
	res := &Result{}

	var freqs *mrfs.Dataset
	if !cfg.HashOrder {
		f, stats, err := mr.Run(cluster, frequencyJob(input, cfg.NumReducers))
		if err != nil {
			return nil, err
		}
		res.Stats.Add(stats)
		freqs = f
	}

	capsules, stats, err := mr.Run(cluster, capsuleJob(input, cfg.NumReducers))
	if err != nil {
		return nil, err
	}
	res.Stats.Add(stats)

	kernel := mr.Job{
		Name:  "vcl-kernel",
		Input: capsules,
		Mapper: &kernelMapper{
			threshold: cfg.Threshold,
			hashOrder: cfg.HashOrder,
			jaccard:   isJaccard,
		},
		Reducer:     kernelReducer{measure: cfg.Measure, threshold: cfg.Threshold},
		NumReducers: cfg.NumReducers,
		OutputName:  "vcl-kernel-pairs",
	}
	if !cfg.HashOrder {
		kernel.SideInputs = map[string]*mrfs.Dataset{"vcl-freqs": freqs}
	}
	kernelOut, kstats, err := mr.Run(cluster, kernel)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(kstats)
	res.KernelMapSeconds = kstats.MapSeconds + kstats.StartupSeconds

	out, dstats, err := mr.Run(cluster, dedupJob(kernelOut, cfg.NumReducers))
	if err != nil {
		return nil, err
	}
	res.Stats.Add(dstats)
	res.Output = out

	pairs, err := records.DecodePairs(out)
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}
