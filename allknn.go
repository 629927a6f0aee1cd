package vsmartjoin

// Batch all-k-nearest-neighbors: the neighbor question for every entity
// at once. AllKNN loads the dataset into a volatile Index and asks
// QueryKNNEntity about each entity, so every list is the online answer
// by construction — the same one top-k pass, boundary ties included,
// and name pad — and the differential suite holds both to a brute-force
// oracle.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// KNNStats summarizes the cost of an AllKNN run.
type KNNStats struct {
	// WallSeconds is the real time the run took in this process, index
	// build included.
	WallSeconds float64
}

// KNNResult is the outcome of AllKNN.
type KNNResult struct {
	// Neighbors maps every entity to its k nearest entities, nearest
	// first, names ascending on distance ties. A list is shorter than k
	// only when the dataset holds fewer than k other entities.
	Neighbors map[string][]Neighbor
	// Stats is the cost of the run.
	Stats KNNStats
}

// AllKNN computes every entity's exact k nearest entities under the
// distance 1 − similarity. Entities sharing no element sit at distance
// exactly 1 and legitimately fill lists when fewer than k entities
// overlap — the same population the online QueryKNN pads with.
//
// Only Options.Measure applies; the other fields configure AllPairs'
// simulated cluster and are ignored. The entities are queried by
// GOMAXPROCS goroutines.
func AllKNN(d *Dataset, k int, opts Options) (*KNNResult, error) {
	if d == nil || len(d.sets) == 0 {
		return nil, errors.New("vsmartjoin: empty dataset")
	}
	if k <= 0 {
		return nil, fmt.Errorf("vsmartjoin: k must be positive, got %d", k)
	}
	start := time.Now()
	ix, err := BuildIndex(d, IndexOptions{Measure: opts.Measure, CacheSize: -1})
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	names := make([]string, len(d.sets))
	for i, m := range d.sets {
		names[i] = d.names[m.ID]
	}
	lists := make([][]Neighbor, len(names))
	errs := make([]error, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(names); i = int(next.Add(1) - 1) {
				lists[i], errs[i] = ix.QueryKNNEntity(names[i], k)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := &KNNResult{Neighbors: make(map[string][]Neighbor, len(names))}
	for i, name := range names {
		out.Neighbors[name] = lists[i]
	}
	out.Stats.WallSeconds = time.Since(start).Seconds()
	return out, nil
}
