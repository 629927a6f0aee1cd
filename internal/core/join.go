package core

import (
	"errors"
	"fmt"

	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// Config parameterizes a V-SMART-Join run.
type Config struct {
	// Measure is the similarity measure (required).
	Measure similarity.Measure
	// Threshold is the similarity cut-off t in [0, 1].
	Threshold float64
	// Algorithm selects the joining-phase implementation.
	Algorithm Algorithm
	// ShardC is the Sharding split parameter C (underlying cardinality);
	// 0 selects DefaultShardC. Ignored by the other algorithms.
	ShardC int
	// StopWordQ, when positive, enables the preprocessing step that drops
	// elements shared by more than q multisets.
	StopWordQ int
	// NumReducers overrides the reduce task count (0 = cluster machines).
	NumReducers int
	// NoLengthFilter runs the paper's unpruned Similarity1, which emits a
	// tuple for every pair sharing an element. By default Similarity1
	// skips each pair whose similarity.SimUpperBound is below the
	// threshold; results are the same either way.
	NoLengthFilter bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Measure == nil {
		return errors.New("core: Config.Measure is required")
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("core: threshold %v outside [0,1]", c.Threshold)
	}
	if c.ShardC < 0 {
		return fmt.Errorf("core: ShardC %d negative", c.ShardC)
	}
	if c.StopWordQ < 0 {
		return fmt.Errorf("core: StopWordQ %d negative", c.StopWordQ)
	}
	return nil
}

// Result is the outcome of a join run.
type Result struct {
	// Pairs are the similar pairs, canonically ordered and sorted.
	Pairs []records.Pair
	// Output is the raw result dataset.
	Output *mrfs.Dataset
	// JoiningStats covers preprocessing plus the joining phase;
	// SimilarityStats covers Similarity1 + Similarity2. Stats is their
	// concatenation (the end-to-end simulated run time).
	JoiningStats    mr.PipelineStats
	SimilarityStats mr.PipelineStats
	Stats           mr.PipelineStats
}

// ShardingJoining runs only the Sharding joining phase (Sharding1 +
// Sharding2) with split parameter c, returning the joined dataset and the
// per-step stats — the quantities of the paper's Fig 7 sensitivity
// analysis.
func ShardingJoining(cluster mr.ClusterConfig, input *mrfs.Dataset, c, numReducers int) (*mrfs.Dataset, mr.PipelineStats, error) {
	var ps mr.PipelineStats
	if c <= 0 {
		c = DefaultShardC
	}
	table, s1, err := mr.Run(cluster, sharding1Job(input, c, numReducers))
	if err != nil {
		return nil, ps, err
	}
	ps.Add(s1)
	joined, s2, err := mr.Run(cluster, sharding2Job(input, table, numReducers))
	if err != nil {
		return nil, ps, err
	}
	ps.Add(s2)
	return joined, ps, nil
}

// Join runs the full V-SMART-Join pipeline on a raw-tuple dataset.
func Join(cluster mr.ClusterConfig, input *mrfs.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	numReducers := cfg.NumReducers
	filter := newLengthFilter(cfg)

	// Optional preprocessing: discard stop words.
	if cfg.StopWordQ > 0 {
		filtered, stats, err := mr.Run(cluster, StopWordJob(input, cfg.StopWordQ, numReducers))
		if err != nil {
			return nil, err
		}
		res.JoiningStats.Add(stats)
		input = filtered
	}

	// Joining phase: produce either joined tuples or, for Lookup's fused
	// final step, Similarity1 output directly.
	var sim1Out *mrfs.Dataset
	switch cfg.Algorithm {
	case OnlineAggregation:
		joined, stats, err := mr.Run(cluster, onlineAggregationJob(input, numReducers))
		if err != nil {
			return nil, err
		}
		res.JoiningStats.Add(stats)
		pairs, s1, err := mr.Run(cluster, similarity1Job(joined, filter, numReducers))
		if err != nil {
			return nil, err
		}
		res.SimilarityStats.Add(s1)
		sim1Out = pairs

	case Lookup:
		table, stats, err := mr.Run(cluster, lookup1Job(input, numReducers))
		if err != nil {
			return nil, err
		}
		res.JoiningStats.Add(stats)
		pairs, s1, err := mr.Run(cluster, lookup2Job(input, table, filter, numReducers))
		if err != nil {
			return nil, err
		}
		// The fused step does the joining phase's work in its map stage
		// and Similarity1's in its reduce stage; attribute it to the
		// similarity phase as the paper's accounting does for Lookup2.
		res.SimilarityStats.Add(s1)
		sim1Out = pairs

	case Sharding:
		joined, stats, err := ShardingJoining(cluster, input, cfg.ShardC, numReducers)
		if err != nil {
			return nil, err
		}
		// Add job by job rather than Merge: after a stop-word step the
		// simulated seconds must sum in the same order as each step ran.
		for _, j := range stats.Jobs {
			res.JoiningStats.Add(j)
		}
		pairs, s3, err := mr.Run(cluster, similarity1Job(joined, filter, numReducers))
		if err != nil {
			return nil, err
		}
		res.SimilarityStats.Add(s3)
		sim1Out = pairs

	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", cfg.Algorithm)
	}

	// Similarity2: aggregate conjunctive partials and apply the measure.
	out, s2, err := mr.Run(cluster, similarity2Job(sim1Out, filter, cfg.Measure, cfg.Threshold, numReducers))
	if err != nil {
		return nil, err
	}
	res.SimilarityStats.Add(s2)
	res.Output = out

	res.Stats.Merge(res.JoiningStats)
	res.Stats.Merge(res.SimilarityStats)

	pairs, err := records.DecodePairs(out)
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}
