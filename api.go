package vsmartjoin

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"

	"vsmartjoin/internal/core"
	"vsmartjoin/internal/graph"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Algorithm names accepted by Options.Algorithm.
const (
	// AlgorithmOnlineAggregation joins Uni(Mi) in one MR step using
	// secondary keys (the fastest; rejected in Hadoop-compatible mode).
	AlgorithmOnlineAggregation = "online-aggregation"
	// AlgorithmLookup joins through an in-memory side table (fast, but the
	// table must fit in per-machine memory).
	AlgorithmLookup = "lookup"
	// AlgorithmSharding splits entities by underlying cardinality around
	// parameter C (scalable on skewed data; Hadoop-compatible).
	AlgorithmSharding = "sharding"
)

// Measure names accepted by Options.Measure: "ruzicka", "jaccard", "dice",
// "set-dice", "cosine", "set-cosine", "vector-cosine", "overlap".

// Dataset accumulates entities for a join. Entities and elements are
// strings, interned internally.
type Dataset struct {
	dict   *multiset.Dict
	names  map[multiset.ID]string
	byName map[string]int // entity name → index into sets
	sets   []multiset.Multiset
	nextID multiset.ID
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		dict:   multiset.NewDict(),
		names:  make(map[multiset.ID]string),
		byName: make(map[string]int),
		nextID: 1,
	}
}

// Add registers an entity with its element multiplicities. Adding the
// same entity name twice merges the multiplicities by summing them; a
// sum past math.MaxUint32 saturates at math.MaxUint32.
func (d *Dataset) Add(entity string, counts map[string]uint32) {
	idx, ok := d.byName[entity]
	if !ok {
		id := d.nextID
		d.nextID++
		idx = len(d.sets)
		d.byName[entity] = idx
		d.names[id] = entity
		d.sets = append(d.sets, multiset.Multiset{ID: id})
	}
	// Intern in sorted name order: element IDs (and with them record
	// encodings, partition hashes, and simulated costs) must not depend on
	// Go's randomized map iteration, or identical runs would report
	// different stats.
	elems := make([]string, 0, len(counts))
	for elem, c := range counts {
		if c == 0 {
			continue
		}
		elems = append(elems, elem)
	}
	sort.Strings(elems)
	entries := d.sets[idx].Entries
	for _, elem := range elems {
		entries = append(entries, multiset.Entry{Elem: d.dict.Intern(elem), Count: counts[elem]})
	}
	d.sets[idx] = multiset.New(d.sets[idx].ID, entries)
}

// AddSet registers an entity as a set (all multiplicities 1).
func (d *Dataset) AddSet(entity string, elements []string) {
	counts := make(map[string]uint32, len(elements))
	for _, e := range elements {
		counts[e] = 1
	}
	d.Add(entity, counts)
}

// Len reports the number of entities.
func (d *Dataset) Len() int { return len(d.sets) }

// Each calls fn for every entity in insertion order with its name and
// element multiplicities, stopping early if fn returns false. Every
// entity appears once: Add merges a repeated name. The counts map is
// freshly built per call and may be retained by fn.
func (d *Dataset) Each(fn func(entity string, counts map[string]uint32) bool) {
	for _, m := range d.sets {
		counts := make(map[string]uint32, len(m.Entries))
		for _, e := range m.Entries {
			counts[d.dict.Name(e.Elem)] += e.Count
		}
		if !fn(d.names[m.ID], counts) {
			return
		}
	}
}

// DefaultThreshold is the similarity cut-off used when Options.Threshold
// is negative (unset).
const DefaultThreshold = 0.5

// Options configures AllPairs. AllKNN reads only Measure: the other
// fields do not apply to it.
type Options struct {
	// Measure is the similarity measure name (default "ruzicka").
	Measure string
	// Threshold is the similarity cut-off t in [0, 1]. Zero is a valid
	// threshold (emit every pair with any similarity); pass a negative
	// value for the default (DefaultThreshold). Values above 1 or NaN are
	// rejected.
	Threshold float64
	// Algorithm selects the joining algorithm (default online-aggregation,
	// or sharding when HadoopCompat is set).
	Algorithm string
	// Machines sets the simulated cluster size (default 16).
	Machines int
	// MemPerMachine is the simulated per-machine memory budget in bytes
	// (default 1 GiB, the paper's setting).
	MemPerMachine int64
	// ShuffleBufferBytes caps how many shuffle bytes each map task buffers
	// in memory before spilling sorted runs to disk; reducers then stream
	// a k-way merge of the runs. 0 (the default) keeps the whole shuffle
	// in memory. Results are identical either way.
	ShuffleBufferBytes int64
	// HadoopCompat disables secondary-key support, as on Hadoop.
	HadoopCompat bool
	// StopWordQ, when positive, drops elements shared by more than q
	// entities before joining.
	StopWordQ int
	// ShardC overrides the Sharding split parameter C.
	ShardC int
}

// Pair is one similar pair of entities.
type Pair struct {
	A, B       string
	Similarity float64
}

// Stats summarizes the simulated cluster cost of a run.
type Stats struct {
	// JoiningSeconds and SimilaritySeconds split the simulated time by
	// phase; TotalSeconds is their sum.
	JoiningSeconds    float64
	SimilaritySeconds float64
	TotalSeconds      float64
	// Jobs is the number of MapReduce steps executed.
	Jobs int
	// The candidate funnel. CandidateTuples counts the pair tuples
	// Similarity1 emitted, one per shared element of a pair, after its
	// length filter; LengthPruned counts the tuples that filter dropped,
	// because the two entities' sizes alone keep the pair below the
	// threshold; OutputPairs counts the final pairs.
	CandidateTuples int64
	LengthPruned    int64
	OutputPairs     int64
	// SpilledBytes is the shuffle volume spilled to disk across all jobs
	// (0 unless Options.ShuffleBufferBytes forced spilling).
	SpilledBytes int64
	// WallSeconds is the real time the jobs took in this process — unlike
	// every figure above measured, not simulated — and JobTimes splits it
	// by job and engine phase.
	WallSeconds float64
	JobTimes    []JobTime
}

// JobTime is one MapReduce job's time: simulated on the modelled cluster,
// and real, with the real time split over the engine's phases (the rest of
// WallSeconds is output placement and cost accounting).
type JobTime struct {
	Name               string
	SimulatedSeconds   float64
	WallSeconds        float64
	WallMapSeconds     float64 // map tasks, with combining and spilling
	WallShuffleSeconds float64 // gathering and merging the reduce partitions, inside the reduce tasks
	WallReduceSeconds  float64 // reduce tasks
}

func (t JobTime) String() string {
	return fmt.Sprintf("%s: simulated %.1fs, wall %.0fms (map %.0f, shuffle %.0f, reduce %.0f)",
		t.Name, t.SimulatedSeconds, t.WallSeconds*1e3, t.WallMapSeconds*1e3, t.WallShuffleSeconds*1e3, t.WallReduceSeconds*1e3)
}

// jobTimes extracts the public per-job times of a pipeline.
func jobTimes(ps mr.PipelineStats) []JobTime {
	out := make([]JobTime, len(ps.Jobs))
	for i, j := range ps.Jobs {
		out[i] = JobTime{
			Name:               j.Name,
			SimulatedSeconds:   j.TotalSeconds,
			WallSeconds:        j.WallSeconds,
			WallMapSeconds:     j.WallMapSeconds,
			WallShuffleSeconds: j.WallShuffleSeconds,
			WallReduceSeconds:  j.WallReduceSeconds,
		}
	}
	return out
}

// Result is the outcome of AllPairs.
type Result struct {
	// Pairs are the similar pairs, sorted by entity names.
	Pairs []Pair
	// Stats is the simulated cluster cost.
	Stats Stats

	ids []records.Pair
	rev map[multiset.ID]string
}

// Communities clusters the similar pairs into connected components —
// the paper's community-discovery post-processing. Components are sorted
// largest first; members are entity names.
func (r *Result) Communities() [][]string {
	comps := graph.Communities(r.ids)
	out := make([][]string, len(comps))
	for i, c := range comps {
		names := make([]string, len(c))
		for j, id := range c {
			names[j] = r.rev[id]
		}
		sort.Strings(names)
		out[i] = names
	}
	return out
}

// AllPairs finds every pair of entities with similarity at or above the
// threshold, exactly.
func AllPairs(d *Dataset, opts Options) (*Result, error) {
	if d == nil || len(d.sets) == 0 {
		return nil, errors.New("vsmartjoin: empty dataset")
	}
	measure, err := measureByName(opts.Measure)
	if err != nil {
		return nil, err
	}
	threshold := opts.Threshold
	if threshold < 0 {
		threshold = DefaultThreshold
	}
	if math.IsNaN(threshold) || threshold > 1 {
		return nil, fmt.Errorf("vsmartjoin: threshold %v outside [0, 1] (negative selects the default %v)",
			opts.Threshold, DefaultThreshold)
	}
	machines := opts.Machines
	if machines == 0 {
		machines = 16
	}
	mem := opts.MemPerMachine
	if mem == 0 {
		mem = 1 << 30
	}
	algName := opts.Algorithm
	if algName == "" {
		if opts.HadoopCompat {
			algName = AlgorithmSharding
		} else {
			algName = AlgorithmOnlineAggregation
		}
	}
	var alg core.Algorithm
	switch algName {
	case AlgorithmOnlineAggregation:
		alg = core.OnlineAggregation
	case AlgorithmLookup:
		alg = core.Lookup
	case AlgorithmSharding:
		alg = core.Sharding
	default:
		return nil, fmt.Errorf("vsmartjoin: unknown algorithm %q", algName)
	}

	cluster := mr.NewCluster(machines, mem)
	cluster.ShuffleBufferBytes = opts.ShuffleBufferBytes
	if opts.HadoopCompat {
		cluster = cluster.Hadoop()
	}
	input := records.BuildInput("input", d.sets, 4*machines)
	res, err := core.Join(cluster, input, core.Config{
		Measure:   measure,
		Threshold: threshold,
		Algorithm: alg,
		ShardC:    opts.ShardC,
		StopWordQ: opts.StopWordQ,
	})
	if err != nil {
		return nil, err
	}

	out := &Result{ids: res.Pairs, rev: maps.Clone(d.names)}
	out.Stats = Stats{
		JoiningSeconds:    res.JoiningStats.TotalSeconds,
		SimilaritySeconds: res.SimilarityStats.TotalSeconds,
		TotalSeconds:      res.Stats.TotalSeconds,
		Jobs:              len(res.Stats.Jobs),
		CandidateTuples:   res.Stats.Counter(core.CounterCandidateTuples),
		LengthPruned:      res.Stats.Counter(core.CounterLengthPruned),
		OutputPairs:       res.Stats.Counter(core.CounterOutputPairs),
		WallSeconds:       res.Stats.WallSeconds,
		JobTimes:          jobTimes(res.Stats),
	}
	for _, j := range res.Stats.Jobs {
		out.Stats.SpilledBytes += j.SpilledBytes
	}
	for _, p := range res.Pairs {
		a, b := out.rev[p.A], out.rev[p.B]
		if a > b {
			a, b = b, a
		}
		out.Pairs = append(out.Pairs, Pair{A: a, B: b, Similarity: p.Sim})
	}
	sort.Slice(out.Pairs, func(i, j int) bool {
		if out.Pairs[i].A != out.Pairs[j].A {
			return out.Pairs[i].A < out.Pairs[j].A
		}
		return out.Pairs[i].B < out.Pairs[j].B
	})
	return out, nil
}

// measureByName resolves a measure name, "" meaning the default,
// ruzicka.
func measureByName(name string) (similarity.Measure, error) {
	if name == "" {
		name = "ruzicka"
	}
	return similarity.ByName(name)
}

// Similarity computes the similarity of two entities directly — a
// convenience for spot checks and tests.
func Similarity(measure string, a, b map[string]uint32) (float64, error) {
	m, err := similarity.ByName(measure)
	if err != nil {
		return 0, err
	}
	dict := multiset.NewDict()
	build := func(id multiset.ID, counts map[string]uint32) multiset.Multiset {
		entries := make([]multiset.Entry, 0, len(counts))
		for e, c := range counts {
			entries = append(entries, multiset.Entry{Elem: dict.Intern(e), Count: c})
		}
		return multiset.New(id, entries)
	}
	return similarity.Exact(m, build(1, a), build(2, b)), nil
}
