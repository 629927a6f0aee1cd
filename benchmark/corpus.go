package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/multiset"
)

// entity is one IP of the generated trace under the names the public
// API sees: "ip-<id>" observing "cookie-<id>" elements.
type entity struct {
	name   string
	counts map[string]uint32
}

// corpus is a generated IP→cookie trace. Every workload draws its data
// from internal/datagen (planted proxies, big proxies, hot cookies), so
// the skew the paper is about is present in all of them.
type corpus struct {
	ents   []entity
	tuples int
}

// batchTraceConfig is the batch_skew trace: datagen.SmallConfig scaled
// to ≈12k entities / ≈108k tuples, keeping the two big proxies that
// make the join skewed.
func batchTraceConfig(seed int64, quick bool) datagen.TraceConfig {
	if quick {
		cfg := datagen.TinyConfig()
		cfg.Seed = seed
		return cfg
	}
	cfg := datagen.SmallConfig()
	cfg.Seed = seed
	cfg.NumBackground = 12000
	cfg.BackgroundAlphabet = 18000
	cfg.NumProxies = 30
	cfg.NumBigProxies = 2
	cfg.BigPoolSize = 1500
	narrowProxies(&cfg)
	return cfg
}

// servingTraceConfig is the corpus the three serving workloads index:
// half of datagen.SmallConfig's background population, ≈20.8k entities.
func servingTraceConfig(seed int64, quick bool) datagen.TraceConfig {
	if quick {
		cfg := datagen.TinyConfig()
		cfg.Seed = seed
		return cfg
	}
	cfg := datagen.SmallConfig()
	cfg.Seed = seed
	cfg.NumBackground = 20000
	cfg.BackgroundAlphabet = 30000
	narrowProxies(&cfg)
	return cfg
}

// narrowProxies keeps the planted proxies near the middle of
// SmallConfig's ranges. The pairs a proxy contributes grow with the
// square of its size, so with sizes drawn from 4 to 24 the amount of
// join work swings by ±10 % from seed to seed; drawn from 12 to 16 the
// corpus keeps its shape and different seeds cost about the same.
func narrowProxies(cfg *datagen.TraceConfig) {
	cfg.ProxySizeMin, cfg.ProxySizeMax = 12, 16
	cfg.PoolSizeMin, cfg.PoolSizeMax = 36, 48
}

func generateCorpus(cfg datagen.TraceConfig) (*corpus, error) {
	tr, err := datagen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	c := &corpus{ents: make([]entity, len(tr.Multisets))}
	for i, m := range tr.Multisets {
		counts := make(map[string]uint32, len(m.Entries))
		for _, e := range m.Entries {
			counts[fmt.Sprintf("cookie-%d", uint64(e.Elem))] += e.Count
		}
		c.ents[i] = entity{name: fmt.Sprintf("ip-%d", uint64(m.ID)), counts: counts}
		c.tuples += len(counts)
	}
	return c, nil
}

// sortedElems returns the element names of counts in ascending order,
// the one iteration order everything seeded must use: Go randomizes map
// iteration, so ranging a map directly would make streams differ
// between runs of the same seed.
func sortedElems(counts map[string]uint32) []string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeTSV writes the corpus in the entity<TAB>element<TAB>count format
// vsmartjoin.ReadTraceFile parses.
func (c *corpus) writeTSV(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for _, e := range c.ents {
		for _, elem := range sortedElems(e.counts) {
			fmt.Fprintf(w, "%s\t%s\t%d\n", e.name, elem, e.counts[elem])
		}
	}
	return w.Flush()
}

// internedSets rebuilds the corpus as the []multiset.Multiset
// vsmartjoin.Dataset holds privately after Add: entity IDs from 1 in
// insertion order, elements interned in sorted-name order. The batch
// ladder feeds these to records.BuildInput so its core.Join sees the
// same record bytes, partition hashes and simulated costs as AllPairs.
func (c *corpus) internedSets() ([]multiset.Multiset, *multiset.Dict) {
	dict := multiset.NewDict()
	sets := make([]multiset.Multiset, len(c.ents))
	for i, e := range c.ents {
		entries := make([]multiset.Entry, 0, len(e.counts))
		for _, elem := range sortedElems(e.counts) {
			entries = append(entries, multiset.Entry{Elem: dict.Intern(elem), Count: e.counts[elem]})
		}
		sets[i] = multiset.New(multiset.ID(i+1), entries)
	}
	return sets, dict
}

// Query kinds, in the order the generators cycle through them.
const (
	kindThreshold = iota
	kindTopK
	kindKNN
	numKinds
)

var kindNames = [numKinds]string{"threshold", "topk", "knn"}

const (
	queryThreshold = 0.5
	queryK         = 10
)

// query is one generated read: an indexed entity's elements with about
// a tenth dropped plus one element no entity has, so the query overlaps
// its source strongly without being a copy of it. The novel element
// carries the query's sequence number, which makes every query of a
// pool a distinct result-cache key.
type query struct {
	kind   int
	counts map[string]uint32
	// body is the query as the daemon's JSON request; path is the
	// endpoint it is POSTed to.
	path string
	body []byte
}

// maxSourceElems caps the entities requests are derived from. A big
// proxy observes thousands of cookies: a query or an upsert built from
// one is a 60 KB request costing a hundred ordinary ones, and whether
// such a request lands on a hot rank of a zipf schedule would then
// decide a whole run's numbers. The big proxies stay in the corpus,
// where every query still has to get past them; they are just never
// the request itself.
const maxSourceElems = 256

// sourceEntities lists the indexes of the entities requests may be
// derived from.
func sourceEntities(ents []entity) []int {
	var out []int
	for i, e := range ents {
		if len(e.counts) <= maxSourceElems {
			out = append(out, i)
		}
	}
	return out
}

// makeQueries derives n queries from seeded uniform picks among the
// source entities.
func makeQueries(rng *rand.Rand, ents []entity, n int, tag string) ([]query, error) {
	sources := sourceEntities(ents)
	qs := make([]query, n)
	for i := range qs {
		src := ents[sources[rng.Intn(len(sources))]]
		counts := make(map[string]uint32, len(src.counts)+1)
		for _, elem := range sortedElems(src.counts) {
			if rng.Float64() < 0.1 {
				continue
			}
			counts[elem] = src.counts[elem]
		}
		counts[fmt.Sprintf("novel-%s-%d", tag, i)] = 1
		q := query{kind: i % numKinds, counts: counts}
		var err error
		if q.path, q.body, err = encodeQuery(q.kind, counts); err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// encodeQuery marshals a query as the daemon's wire request.
// encoding/json writes map keys sorted, so the bytes are a function of
// the query alone.
func encodeQuery(kind int, counts map[string]uint32) (path string, body []byte, err error) {
	switch kind {
	case kindThreshold:
		path = "/query"
		body, err = json.Marshal(map[string]any{"elements": counts, "threshold": queryThreshold})
	case kindTopK:
		path = "/query"
		body, err = json.Marshal(map[string]any{"elements": counts, "topk": queryK})
	default:
		path = "/knn"
		body, err = json.Marshal(map[string]any{"elements": counts, "k": queryK})
	}
	return path, body, err
}

// subSeed derives an independent stream seed from the run seed, so the
// corpus, the query pool and the schedules do not share one RNG and a
// change to one generator cannot shift the others.
func subSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x & (1<<62 - 1))
}
