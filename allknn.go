package vsmartjoin

// Batch all-k-nearest-neighbors: the MapReduce counterpart of
// QueryKNN, answering the neighbor question for every entity at once
// through internal/knn's partition-and-refine pipeline. Entity IDs are
// renumbered by ascending name rank before the run, so the pipeline's
// ID tie-breaks are name tie-breaks — each list comes back in the same
// canonical (distance, name) order the online path produces, and the
// differential suite gates the two against each other entity by
// entity.

import (
	"errors"
	"fmt"
	"sort"

	"vsmartjoin/internal/knn"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/multiset"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// KNNStats summarizes the simulated cluster cost of an AllKNN run.
type KNNStats struct {
	// TotalSeconds is the simulated wall time of the pipeline; Jobs is
	// its MapReduce step count.
	TotalSeconds float64
	Jobs         int
	// GroupsProbed and GroupsPruned count the refine stage's per-entity
	// decisions about foreign cardinality groups: pruned groups were
	// excluded by the distance lower bound alone.
	GroupsProbed int64
	GroupsPruned int64
	// SpilledBytes is the shuffle volume spilled to disk across all jobs
	// (0 unless Options.ShuffleBufferBytes forced spilling).
	SpilledBytes int64
	// WallSeconds is the real (measured, not simulated) time the jobs took
	// in this process; JobTimes splits it by job and engine phase.
	WallSeconds float64
	JobTimes    []JobTime
}

// KNNResult is the outcome of AllKNN.
type KNNResult struct {
	// Neighbors maps every entity to its k nearest entities, nearest
	// first, names ascending on distance ties. A list is shorter than k
	// only when the dataset holds fewer than k other entities.
	Neighbors map[string][]Neighbor
	// Stats is the simulated cluster cost.
	Stats KNNStats
}

// AllKNN computes every entity's exact k nearest entities under the
// distance 1 − similarity. Entities sharing no element sit at distance
// exactly 1 and legitimately fill lists when fewer than k entities
// overlap — the same population the online QueryKNN pads with.
//
// Options is interpreted as for AllPairs, except that Threshold,
// Algorithm, StopWordQ, and ShardC do not apply to the kNN pipeline
// and are ignored.
func AllKNN(d *Dataset, k int, opts Options) (*KNNResult, error) {
	if d == nil || len(d.sets) == 0 {
		return nil, errors.New("vsmartjoin: empty dataset")
	}
	if k <= 0 {
		return nil, fmt.Errorf("vsmartjoin: k must be positive, got %d", k)
	}
	measureName := opts.Measure
	if measureName == "" {
		measureName = "ruzicka"
	}
	measure, err := similarity.ByName(measureName)
	if err != nil {
		return nil, err
	}
	machines := opts.Machines
	if machines == 0 {
		machines = 16
	}
	mem := opts.MemPerMachine
	if mem == 0 {
		mem = 1 << 30
	}
	cluster := mr.NewCluster(machines, mem)
	cluster.ShuffleBufferBytes = opts.ShuffleBufferBytes
	if opts.HadoopCompat {
		// The kNN jobs never rely on secondary keys, so Hadoop semantics
		// only flip the cluster flag — results are identical.
		cluster = cluster.Hadoop()
	}

	// Renumber entities by ascending name rank: the pipeline breaks
	// distance ties by ID, and rank IDs make that exactly the public
	// name order — no per-list re-sorting, no order divergence from the
	// online path.
	rev := d.nameTable()
	names := make([]string, 0, len(d.sets))
	for _, m := range d.sets {
		names = append(names, rev[m.ID])
	}
	sort.Strings(names)
	rank := make(map[string]multiset.ID, len(names))
	for i, n := range names {
		rank[n] = multiset.ID(i + 1)
	}
	byRank := make(map[multiset.ID]string, len(names))
	for n, id := range rank {
		byRank[id] = n
	}
	renumbered := make([]multiset.Multiset, 0, len(d.sets))
	var empties []string // entities with no elements never enter the pipeline
	for _, m := range d.sets {
		if len(m.Entries) == 0 {
			empties = append(empties, rev[m.ID])
			continue
		}
		renumbered = append(renumbered, multiset.Multiset{ID: rank[rev[m.ID]], Entries: m.Entries})
	}
	sort.Strings(empties)

	out := &KNNResult{Neighbors: make(map[string][]Neighbor, len(names))}
	if len(renumbered) > 0 {
		input := records.BuildInput("knn-input", renumbered, 4*machines)
		res, err := knn.AllKNN(cluster, input, knn.Config{Measure: measure, K: k})
		if err != nil {
			return nil, err
		}
		out.Stats = KNNStats{
			TotalSeconds: res.Stats.TotalSeconds,
			Jobs:         len(res.Stats.Jobs),
			GroupsProbed: res.Stats.Counter(knn.CounterGroupsProbed),
			GroupsPruned: res.Stats.Counter(knn.CounterGroupsPruned),
			WallSeconds:  res.Stats.WallSeconds,
			JobTimes:     jobTimes(res.Stats),
		}
		for _, j := range res.Stats.Jobs {
			out.Stats.SpilledBytes += j.SpilledBytes
		}
		for id, list := range res.Lists {
			ns := make([]Neighbor, 0, min(len(list)+len(empties), k))
			for _, n := range list {
				ns = append(ns, Neighbor{Entity: byRank[n.ID], Distance: n.Dist})
			}
			// Empty entities are at distance exactly 1 from everything, like
			// any non-overlapping entity; fold them into the canonical order.
			ns = append(ns, padNeighbors(empties, "", k)...)
			SortNeighborsByName(ns)
			if len(ns) > k {
				ns = ns[:k]
			}
			out.Neighbors[byRank[id]] = ns
		}
	}
	// An empty entity is at distance 1 from every other entity, so its k
	// nearest are simply the k smallest names besides its own.
	for _, name := range empties {
		ns := padNeighbors(names, name, k)
		out.Neighbors[name] = ns
	}
	return out, nil
}

// padNeighbors returns the first k of pool (ascending, self excluded)
// as distance-1 neighbors. pool must be sorted.
func padNeighbors(pool []string, self string, k int) []Neighbor {
	ns := make([]Neighbor, 0, min(len(pool), k))
	for _, n := range pool {
		if n == self {
			continue
		}
		if len(ns) == k {
			break
		}
		ns = append(ns, Neighbor{Entity: n, Distance: 1})
	}
	//lint:vsmart-allow canonicalorder a constant-distance list in ascending name order is canonical by construction; callers folding it into a mixed list re-sort
	return ns
}
