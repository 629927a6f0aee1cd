package core

import (
	"fmt"

	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Counter names exported by the similarity phase.
const (
	CounterCandidateTuples = "sim1:candidate_tuples" // pair tuples emitted (one per shared element)
	CounterLengthPruned    = "sim1:length_pruned"    // pair tuples the length filter did not emit
	CounterChunkedLists    = "sim1:chunked_lists"    // reduce lists that overflowed memory
	CounterChunkRecords    = "sim1:chunk_records"    // chunk-pair records emitted
	CounterOutputPairs     = "sim2:output_pairs"     // final pairs at or above threshold
	CounterBelowThreshold  = "sim2:below_threshold"  // candidate pairs filtered out
	CounterStopWords       = "prep:stop_words"       // elements dropped by preprocessing
)

// simEps absorbs float rounding in threshold comparisons so that exact
// fractions like 1/2 are kept at t = 0.5.
const simEps = 1e-12

// boundEps is the slack between the length filter's bound and the
// threshold, as in internal/index: far looser than any float rounding of
// a bound or a similarity, so the filter never drops a pair sim2Reducer
// would keep.
const boundEps = 1e-9

// lengthFilter is Similarity1's size filter. A pair whose
// similarity.SimUpperBound over its two Uni(.) values is below the
// threshold cannot reach it whatever elements the two share, so none of
// its tuples is emitted. The decision depends only on the pair, so every
// shared element drops it alike and a kept pair keeps all its partials.
// The zero value keeps every pair: the paper's unpruned Similarity1.
type lengthFilter struct {
	measure similarity.Measure
	floor   float64
}

// newLengthFilter returns the filter a run applies: none when cfg opts out
// or when the threshold leaves no bound to fall below.
func newLengthFilter(cfg Config) lengthFilter {
	floor := cfg.Threshold - simEps - boundEps
	if cfg.NoLengthFilter || floor <= 0 {
		return lengthFilter{}
	}
	return lengthFilter{measure: cfg.Measure, floor: floor}
}

func (f lengthFilter) keep(a, b similarity.UniStats) bool {
	return f.measure == nil || similarity.SimUpperBound(f.measure, a, b) >= f.floor
}

// sim1Mapper turns joined tuples ⟨Mi, Uni(Mi), mi,k⟩ into inverted-index
// postings keyed by element: ⟨ak, (Mi, Uni(Mi), fi,k)⟩ (mapSimilarity1).
type sim1Mapper struct{}

func (sim1Mapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	id, err := records.DecodeRawKey(rec.Key)
	if err != nil {
		return err
	}
	uni, entry, err := decodeJoinedVal(rec.Val)
	if err != nil {
		return err
	}
	emitPosting(ctx, entry.Elem, indexEntry{ID: id, Uni: uni, Count: entry.Count}, emit)
	return nil
}

// emitPosting emits one inverted-index posting ⟨ak, (Mi, Uni(Mi), fi,k)⟩.
func emitPosting(ctx *mr.TaskContext, elem multiset.Elem, e indexEntry, emit mr.Emitter) {
	key, val := ctx.Scratch()
	putElemKey(key, elem)
	putPostingVal(val, e)
	emit.Emit(key.Bytes(), val.Bytes())
}

// sim1Reducer scans one element's posting list and emits a candidate-pair
// tuple for every pair of multisets sharing the element
// (reduceSimilarity1). When the list does not fit in the memory budget the
// reducer switches to the paper's chunked mode: it dissects the list into T
// chunks of at most B/2 bytes and emits the T·(T+1)/2 chunk pairs for
// Similarity2 mappers to expand, rewinding the list once per chunk.
type sim1Reducer struct {
	filter lengthFilter
}

func (r sim1Reducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	elem, err := decodeElemKey(key)
	if err != nil {
		return err
	}
	// Try the in-memory path first: buffer the whole list.
	if err := ctx.Reserve(values.Bytes()); err == nil {
		defer ctx.Release(values.Bytes())
		entries := make([]indexEntry, 0, values.Len())
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			e, err := decodePostingVal(v.Val)
			if err != nil {
				return err
			}
			entries = append(entries, e)
		}
		emitAllPairs(ctx, r.filter, entries, nil, emit)
		return nil
	}
	// Chunked mode.
	ctx.Counters.Inc(CounterChunkedLists)
	return chunkedSim1(ctx, elem, values, emit)
}

// emitAllPairs emits candidate-pair tuples for every cross pair of
// left × right, or every unordered pair within left when right is empty,
// except the pairs f rules out, which it counts as length-pruned.
func emitAllPairs(ctx *mr.TaskContext, f lengthFilter, left, right []indexEntry, emit mr.Emitter) {
	var pruned int64
	if len(right) == 0 {
		for i := 0; i < len(left); i++ {
			for j := i + 1; j < len(left); j++ {
				if !f.keep(left[i].Uni, left[j].Uni) {
					pruned++
					continue
				}
				emitPair(ctx, left[i], left[j], emit)
			}
		}
	} else {
		for _, a := range left {
			for _, b := range right {
				if a.ID == b.ID {
					continue
				}
				if !f.keep(a.Uni, b.Uni) {
					pruned++
					continue
				}
				emitPair(ctx, a, b, emit)
			}
		}
	}
	if pruned > 0 {
		ctx.Counters.Add(CounterLengthPruned, pruned)
	}
}

func emitPair(ctx *mr.TaskContext, a, b indexEntry, emit mr.Emitter) {
	key, val := ctx.Scratch()
	putPairTupleKey(key, a, b)
	putConj(val, conjOfCounts(a.Count, b.Count))
	emit.Emit(key.Bytes(), val.Bytes())
	ctx.Counters.Inc(CounterCandidateTuples)
}

// chunkedSim1 implements the §4 overflow handling. Chunk boundaries are
// discovered on a first scan; then for each chunk p the list is rewound,
// chunk p is buffered (at most half the budget), and every following chunk
// q ≥ p is buffered in the other half and emitted as a ⟨p, q⟩ chunk-pair
// record flagged for the Similarity2 mappers.
func chunkedSim1(ctx *mr.TaskContext, elem multiset.Elem, values *mr.Values, emit mr.Emitter) error {
	chunkBudget := ctx.MemBudget() / 2
	if chunkBudget <= 0 {
		return fmt.Errorf("core: no memory budget for chunking element %d", elem)
	}
	// First scan: chunk boundaries as index ranges.
	type span struct{ start, end int } // postings [start, end)
	var spans []span
	var cur span
	var curBytes int64
	idx := 0
	values.Rewind()
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		sz := int64(len(v.Val)) + 6
		if curBytes > 0 && curBytes+sz > chunkBudget {
			cur.end = idx
			spans = append(spans, cur)
			cur = span{start: idx}
			curBytes = 0
		}
		curBytes += sz
		idx++
	}
	cur.end = idx
	if cur.end > cur.start {
		spans = append(spans, cur)
	}

	load := func(s span) ([]indexEntry, int64, error) {
		values.Rewind()
		var bytes int64
		out := make([]indexEntry, 0, s.end-s.start)
		for i := 0; ; i++ {
			v, ok := values.Next()
			if !ok {
				break
			}
			if i < s.start {
				continue
			}
			if i >= s.end {
				break
			}
			e, err := decodePostingVal(v.Val)
			if err != nil {
				return nil, 0, err
			}
			bytes += int64(len(v.Val)) + 6
			out = append(out, e)
		}
		return out, bytes, nil
	}

	for p := 0; p < len(spans); p++ {
		left, leftBytes, err := load(spans[p])
		if err != nil {
			return err
		}
		if err := ctx.Reserve(leftBytes); err != nil {
			return fmt.Errorf("core: chunk %d of element %d: %w", p, elem, err)
		}
		// Diagonal record ⟨p, p⟩.
		emitChunk(ctx, elem, p, p, left, nil, emit)
		// Stream the following chunks within the same scan.
		for q := p + 1; q < len(spans); q++ {
			right, rightBytes, err := load(spans[q])
			if err != nil {
				ctx.Release(leftBytes)
				return err
			}
			if err := ctx.Reserve(rightBytes); err != nil {
				ctx.Release(leftBytes)
				return fmt.Errorf("core: chunk pair (%d,%d) of element %d: %w", p, q, elem, err)
			}
			emitChunk(ctx, elem, p, q, left, right, emit)
			ctx.Release(rightBytes)
		}
		ctx.Release(leftBytes)
	}
	return nil
}

// emitChunk emits the ⟨p, q⟩ chunk-pair record of an overflowing element.
func emitChunk(ctx *mr.TaskContext, elem multiset.Elem, p, q int, left, right []indexEntry, emit mr.Emitter) {
	key, val := ctx.Scratch()
	putChunkKey(key, elem, p, q)
	putChunkVal(val, left, right)
	emit.Emit(key.Bytes(), val.Bytes())
	ctx.Counters.Inc(CounterChunkRecords)
}

// sim2Mapper is the Similarity2 map stage: an identity map for ordinary
// candidate-pair tuples, and the chunk-pair expansion path for flagged
// records from overloaded Similarity1 reducers.
type sim2Mapper struct {
	filter lengthFilter
}

func (m sim2Mapper) Map(ctx *mr.TaskContext, rec mrfs.Record, emit mr.Emitter) error {
	if len(rec.Key) == 0 {
		return fmt.Errorf("core: empty similarity2 key")
	}
	switch rec.Key[0] {
	case tagPair:
		emit.Emit(rec.Key, rec.Val)
		return nil
	case tagChunk:
		bytes := int64(len(rec.Val))
		if err := ctx.Reserve(bytes); err != nil {
			return fmt.Errorf("core: similarity2 mapper buffering chunk pair: %w", err)
		}
		defer ctx.Release(bytes)
		left, right, err := decodeChunkVal(rec.Val)
		if err != nil {
			return err
		}
		emitAllPairs(ctx, m.filter, left, right, emit)
		return nil
	default:
		return fmt.Errorf("core: unknown similarity2 record tag %d", rec.Key[0])
	}
}

// conjCombiner pre-aggregates the ⟨fi,k, fj,k⟩ partials of a pair to
// balance the Similarity2 reducers' load (the paper's dedicated combiner).
type conjCombiner struct{}

func (conjCombiner) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	var total similarity.ConjStats
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		c, err := decodeConjVal(v.Val)
		if err != nil {
			return err
		}
		total.Add(c)
	}
	_, val := ctx.Scratch()
	putConj(val, total)
	emit.Emit(key, val.Bytes())
	return nil
}

// sim2Reducer aggregates Conj(Mi,Mj) over all shared elements, combines it
// with the Uni(.) partials carried in the key, and emits the pair when the
// similarity reaches the threshold (reduceSimilarity2).
type sim2Reducer struct {
	measure   similarity.Measure
	threshold float64
}

func (r sim2Reducer) Reduce(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
	pk, err := decodePairTupleKey(key)
	if err != nil {
		return err
	}
	var conj similarity.ConjStats
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		c, err := decodeConjVal(v.Val)
		if err != nil {
			return err
		}
		conj.Add(c)
	}
	sim := r.measure.Sim(pk.UniA, pk.UniB, conj)
	if sim+simEps >= r.threshold {
		// The final output pair ⟨Mi, Mj, Sim⟩; the tuple key is already
		// canonical (Mi < Mj).
		key, val := ctx.Scratch()
		records.PutPairKey(key, pk.A, pk.B)
		records.PutPairVal(val, sim)
		emit.Emit(key.Bytes(), val.Bytes())
		ctx.Counters.Inc(CounterOutputPairs)
	} else {
		ctx.Counters.Inc(CounterBelowThreshold)
	}
	return nil
}

// similarity1Job builds the Similarity1 step over a joined-tuple dataset.
func similarity1Job(joined *mrfs.Dataset, f lengthFilter, numReducers int) mr.Job {
	return mr.Job{
		Name:        "similarity1",
		Input:       joined,
		Mapper:      sim1Mapper{},
		Reducer:     sim1Reducer{filter: f},
		NumReducers: numReducers,
		OutputName:  "sim1-pairs",
	}
}

// similarity2Job builds the Similarity2 step over Similarity1's output.
func similarity2Job(pairs *mrfs.Dataset, f lengthFilter, m similarity.Measure, t float64, numReducers int) mr.Job {
	return mr.Job{
		Name:        "similarity2",
		Input:       pairs,
		Mapper:      sim2Mapper{filter: f},
		Combiner:    conjCombiner{},
		Reducer:     sim2Reducer{measure: m, threshold: t},
		NumReducers: numReducers,
		OutputName:  "similar-pairs",
	}
}
