// Package datagen synthesizes the paper's workloads: IP–cookie traces
// where each IP is a multiset of the cookies observed with it. Traces are
// seeded and deterministic, with three populations:
//
//   - Proxy communities: groups of IPs (the ISP load balancers of §1) that
//     share a large cookie pool with high mutual Ruzicka similarity — the
//     planted ground truth for the §7.4 proxy-identification study.
//   - Background IPs: Zipf-skewed cookie samples, mostly dissimilar.
//   - Hot cookies: a handful of cookies observed across a large fraction
//     of all IPs, producing the heavy frequency tail of Fig 3 (and the
//     stop-word pressure on Similarity1).
//
// The element-per-multiset and multiset-per-element distributions are
// skewed like the paper's Figs 2–3.
package datagen

import (
	"fmt"
	"math/rand"

	"vsmartjoin/internal/multiset"
)

// TraceConfig parameterizes an IP–cookie trace.
type TraceConfig struct {
	Seed int64

	// Proxy communities (planted ground truth).
	NumProxies    int
	ProxySizeMin  int // IPs per proxy
	ProxySizeMax  int
	PoolSizeMin   int // cookies in a proxy's shared pool
	PoolSizeMax   int
	PoolCoverage  float64 // fraction of the pool each member observes
	ProxyMaxCount int     // max multiplicity of a proxy cookie

	// Big proxies: a handful of load balancers with vast underlying
	// cardinalities — the population the paper identifies as VCL's
	// bottleneck and the most important to discover (§7.4).
	NumBigProxies int
	BigProxySize  int // IPs per big proxy
	BigPoolSize   int // cookies in a big proxy's pool

	// Background traffic.
	NumBackground      int
	BackgroundAlphabet int     // distinct background cookies
	BackgroundZipfS    float64 // Zipf skew s (> 1)
	BackgroundZipfV    float64 // Zipf offset v (≥ 1); larger spreads the head
	CookiesPerIPMin    int
	CookiesPerIPMax    int
	BackgroundMaxCount int

	// Hot cookies (the Fig 3 heavy tail / stop words).
	HotCookies  int
	HotFraction float64 // fraction of all IPs observing each hot cookie
}

// Validate checks the configuration for generation-breaking values.
func (c TraceConfig) Validate() error {
	if c.NumProxies < 0 || c.NumBackground < 0 {
		return fmt.Errorf("datagen: negative population sizes")
	}
	if c.NumProxies > 0 {
		if c.ProxySizeMin < 2 || c.ProxySizeMax < c.ProxySizeMin {
			return fmt.Errorf("datagen: bad proxy sizes [%d,%d]", c.ProxySizeMin, c.ProxySizeMax)
		}
		if c.PoolSizeMin < 1 || c.PoolSizeMax < c.PoolSizeMin {
			return fmt.Errorf("datagen: bad pool sizes [%d,%d]", c.PoolSizeMin, c.PoolSizeMax)
		}
		if c.PoolCoverage <= 0 || c.PoolCoverage > 1 {
			return fmt.Errorf("datagen: bad pool coverage %v", c.PoolCoverage)
		}
	}
	if c.NumBackground > 0 {
		if c.BackgroundAlphabet < 1 {
			return fmt.Errorf("datagen: background alphabet %d", c.BackgroundAlphabet)
		}
		if c.BackgroundZipfS <= 1 {
			return fmt.Errorf("datagen: Zipf s must be > 1, got %v", c.BackgroundZipfS)
		}
		if c.CookiesPerIPMin < 1 || c.CookiesPerIPMax < c.CookiesPerIPMin {
			return fmt.Errorf("datagen: bad cookies-per-IP [%d,%d]", c.CookiesPerIPMin, c.CookiesPerIPMax)
		}
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("datagen: bad hot fraction %v", c.HotFraction)
	}
	if c.NumBigProxies > 0 && (c.BigProxySize < 2 || c.BigPoolSize < 1) {
		return fmt.Errorf("datagen: bad big proxy shape %d×%d", c.BigProxySize, c.BigPoolSize)
	}
	return nil
}

// Trace is a generated workload with its planted ground truth.
type Trace struct {
	// Multisets are the IPs, each a multiset of cookie ids.
	Multisets []multiset.Multiset
	// Communities is the ground truth: each inner slice lists the IP ids
	// of one planted proxy.
	Communities [][]multiset.ID
	// NumElements is the number of distinct cookies in the trace.
	NumElements int
}

// Element id layout: proxies draw from disjoint pool ranges, background
// cookies sit above them, hot cookies at the very top.
const (
	poolBase       = 1 << 20
	backgroundBase = 1 << 28
	hotBase        = 1 << 30
)

// Generate builds the trace deterministically from the config seed.
func Generate(cfg TraceConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{}
	nextID := multiset.ID(1)
	elems := make(map[multiset.Elem]struct{})

	// Proxy communities; the first NumBigProxies get the vast pools.
	for p := 0; p < cfg.NumProxies+cfg.NumBigProxies; p++ {
		var size, poolSize int
		if p < cfg.NumBigProxies {
			size = cfg.BigProxySize
			poolSize = cfg.BigPoolSize
		} else {
			size = cfg.ProxySizeMin + rng.Intn(cfg.ProxySizeMax-cfg.ProxySizeMin+1)
			poolSize = cfg.PoolSizeMin + rng.Intn(cfg.PoolSizeMax-cfg.PoolSizeMin+1)
		}
		pool := make([]multiset.Elem, poolSize)
		for i := range pool {
			pool[i] = multiset.Elem(poolBase + p*(1<<14) + i)
		}
		var community []multiset.ID
		for m := 0; m < size; m++ {
			entries := make([]multiset.Entry, 0, poolSize)
			for _, e := range pool {
				if rng.Float64() > cfg.PoolCoverage {
					continue
				}
				count := 1 + rng.Intn(maxInt(cfg.ProxyMaxCount, 1))
				entries = append(entries, multiset.Entry{Elem: e, Count: uint32(count)})
				elems[e] = struct{}{}
			}
			if len(entries) == 0 {
				// Guarantee non-empty members so every planted IP joins.
				entries = append(entries, multiset.Entry{Elem: pool[0], Count: 1})
				elems[pool[0]] = struct{}{}
			}
			tr.Multisets = append(tr.Multisets, multiset.New(nextID, entries))
			community = append(community, nextID)
			nextID++
		}
		tr.Communities = append(tr.Communities, community)
	}

	// Background IPs with Zipf-skewed cookie popularity.
	if cfg.NumBackground > 0 {
		zipf := NewZipf(rng, cfg.BackgroundZipfS, cfg.BackgroundZipfV, uint64(cfg.BackgroundAlphabet-1))
		for i := 0; i < cfg.NumBackground; i++ {
			k := cfg.CookiesPerIPMin + rng.Intn(cfg.CookiesPerIPMax-cfg.CookiesPerIPMin+1)
			counts := make(map[multiset.Elem]uint32, k)
			for j := 0; j < k; j++ {
				e := multiset.Elem(backgroundBase + zipf.Uint64())
				counts[e] += uint32(1 + rng.Intn(maxInt(cfg.BackgroundMaxCount, 1)))
				elems[e] = struct{}{}
			}
			tr.Multisets = append(tr.Multisets, multiset.FromCounts(nextID, counts))
			nextID++
		}
	}

	// Hot cookies: appended to a random fraction of every population.
	for h := 0; h < cfg.HotCookies; h++ {
		e := multiset.Elem(hotBase + h)
		for i := range tr.Multisets {
			if rng.Float64() < cfg.HotFraction {
				ms := tr.Multisets[i]
				entries := append(ms.Entries, multiset.Entry{Elem: e, Count: 1})
				tr.Multisets[i] = multiset.New(ms.ID, entries)
				elems[e] = struct{}{}
			}
		}
	}

	tr.NumElements = len(elems)
	return tr, nil
}

// SmallConfig is the scaled stand-in for the paper's small dataset
// (82M IPs × 133M cookies, scaled ≈1:2000, as internal/experiments
// scales its cost model).
func SmallConfig() TraceConfig {
	return TraceConfig{
		Seed:               1,
		NumProxies:         60,
		ProxySizeMin:       4,
		ProxySizeMax:       24,
		PoolSizeMin:        24,
		PoolSizeMax:        60,
		PoolCoverage:       0.85,
		ProxyMaxCount:      4,
		NumBigProxies:      3,
		BigProxySize:       6,
		BigPoolSize:        3000,
		NumBackground:      40_000,
		BackgroundAlphabet: 60_000,
		BackgroundZipfS:    1.4,
		BackgroundZipfV:    2500,
		CookiesPerIPMin:    1,
		CookiesPerIPMax:    12,
		BackgroundMaxCount: 3,
		HotCookies:         3,
		HotFraction:        0.0015,
	}
}

// RealisticConfig is the scaled stand-in for the paper's realistic dataset
// (454M IPs × 2.2B cookies). It is ~5.5× the small config, matching the
// paper's ratio; its Uni lookup table and its alphabet both deliberately
// exceed the scaled per-machine memory budget, and its biggest proxies
// push VCL's kernel mappers past the scheduler deadline.
func RealisticConfig() TraceConfig {
	return TraceConfig{
		Seed:               2,
		NumProxies:         200,
		ProxySizeMin:       4,
		ProxySizeMax:       24,
		PoolSizeMin:        24,
		PoolSizeMax:        80,
		PoolCoverage:       0.85,
		ProxyMaxCount:      4,
		NumBigProxies:      4,
		BigProxySize:       8,
		BigPoolSize:        6400,
		NumBackground:      220_000,
		BackgroundAlphabet: 400_000,
		BackgroundZipfS:    1.4,
		BackgroundZipfV:    20_000,
		CookiesPerIPMin:    1,
		CookiesPerIPMax:    8,
		BackgroundMaxCount: 3,
		HotCookies:         6,
		HotFraction:        0.0015,
	}
}

// TinyConfig is a fast variant for unit tests and benchmarks.
func TinyConfig() TraceConfig {
	return TraceConfig{
		Seed:               3,
		NumProxies:         8,
		ProxySizeMin:       3,
		ProxySizeMax:       8,
		PoolSizeMin:        8,
		PoolSizeMax:        20,
		PoolCoverage:       0.95,
		ProxyMaxCount:      3,
		NumBackground:      800,
		BackgroundAlphabet: 2_000,
		BackgroundZipfS:    1.4,
		BackgroundZipfV:    50,
		CookiesPerIPMin:    2,
		CookiesPerIPMax:    8,
		BackgroundMaxCount: 3,
		HotCookies:         2,
		HotFraction:        0.01,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NewZipf is the one Zipf sampler of the repo: rand.NewZipf with the
// offset clamped the way trace generation needs (v < 1 reads as 1, the
// smallest offset the stdlib accepts). Both the background-cookie
// population above and the serving benchmarks' skewed query-repetition
// workloads draw from it, so "zipf-skewed" means the same distribution
// in data generation and in load modeling.
func NewZipf(rng *rand.Rand, s, v float64, imax uint64) *rand.Zipf {
	if v < 1 {
		v = 1
	}
	return rand.NewZipf(rng, s, v, imax)
}

// ZipfRanks returns a deterministic sequence of n ranks drawn from
// Zipf(s, v) over [0, imax] — the query-popularity schedule of a
// skewed serving workload (a few head queries repeated constantly, a
// long tail seen once). Same seed, same schedule.
func ZipfRanks(seed int64, s, v float64, imax uint64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	zipf := NewZipf(rng, s, v, imax)
	out := make([]uint64, n)
	for i := range out {
		out[i] = zipf.Uint64()
	}
	return out
}
