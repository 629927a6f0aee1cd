package vsmartjoin

// The query result cache. Serving workloads are zipf-skewed: a few head
// queries repeat constantly while the long tail is seen once, so a small
// bounded LRU in front of the probe→prune→verify pipeline absorbs the
// head at near-zero cost. Correctness comes from generation stamping,
// not timers: every Add/Remove bumps the index generation, each cached
// answer is stamped with the generation read BEFORE its query ran, and
// a lookup only hits when the stamp equals the current generation. A
// mutation racing a fill can therefore only cause a false miss (the
// stale entry is evicted on its next lookup) — never a stale hit — so
// the differential harnesses keep proving byte-identical answers with
// the cache on.
import (
	"container/list"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// defaultCacheSize is the result-cache capacity when IndexOptions leaves
// CacheSize at 0. Sized for the head of a zipf-skewed query population:
// with s ≈ 1.4 the top ~1k distinct queries cover the large majority of
// a skewed stream.
const defaultCacheSize = 1024

// queryCache is a bounded LRU over canonicalized query keys. All state
// sits behind one mutex — lookups copy in and out, so the critical
// section is short and the cache never holds a reference a caller could
// mutate.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is one cached answer, stamped with the index generation
// current when its query began.
type cacheEntry struct {
	key string
	gen uint64
	res QueryResult
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// cloneResult copies an answer so the cache never shares a slice with
// a caller.
func cloneResult(r QueryResult) QueryResult {
	return QueryResult{Matches: slices.Clone(r.Matches), Neighbors: slices.Clone(r.Neighbors)}
}

// get returns a copy of the cached answer for key if one exists and was
// computed at the given generation. A stale entry (any other generation)
// is evicted and reads as a miss. The key is raw bytes so the lookup
// stays allocation-free: Go elides the string conversion in a map index
// expression, and only put materializes the string.
func (c *queryCache) get(key []byte, gen uint64) (QueryResult, bool) {
	c.mu.Lock()
	el, ok := c.byKey[string(key)]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return QueryResult{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		c.lru.Remove(el)
		delete(c.byKey, ent.key)
		c.mu.Unlock()
		c.misses.Add(1)
		return QueryResult{}, false
	}
	c.lru.MoveToFront(el)
	res := cloneResult(ent.res)
	c.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// put stores a copy of res under key, stamped with gen (the generation
// read before the query ran — see the package comment above for why a
// racing mutation then yields a false miss, never a stale hit), and
// evicts least-recently-used entries beyond capacity.
func (c *queryCache) put(key []byte, gen uint64, res QueryResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[string(key)]; ok {
		ent := el.Value.(*cacheEntry)
		ent.gen = gen
		ent.res = cloneResult(res)
		c.lru.MoveToFront(el)
		return
	}
	k := string(key)
	c.byKey[k] = c.lru.PushFront(&cacheEntry{key: k, gen: gen, res: cloneResult(res)})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
	}
}

// len reports the number of live entries (stale ones included until
// their next lookup evicts them).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Cache key layout: the query kind byte, the measure name
// (NUL-terminated — measure names never contain NUL), the kind's
// parameter (threshold bits or k), then the subject: 'E' and the entity
// name, or 'M' and the canonicalized multiset. Element names are
// length-prefixed so adjacent names cannot alias, and sorted so the key
// is independent of map iteration order — two maps holding the same
// multiset always build the same key.
//
// Keys are built into pooled scratch buffers so the cache hit path does
// not allocate for key construction; the key string is materialized only
// when put inserts a new entry.

type keyScratch struct {
	b     []byte
	names []string
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// release returns ks to the pool, dropping the element names so a pooled
// scratch cannot pin a caller's strings in memory.
func (ks *keyScratch) release() {
	clear(ks.names)
	keyScratchPool.Put(ks)
}

// build writes q's cache key into ks.b. q has passed CheckQuery, so
// exactly the fields its kind reads are meaningful.
func (ks *keyScratch) build(measure string, q Query) {
	param := uint64(q.K)
	if q.Kind == KindThreshold {
		param = math.Float64bits(q.Threshold)
	}
	b := append(ks.b[:0], byte(q.Kind))
	b = append(b, measure...)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint64(b, param)
	if q.Entity != "" {
		ks.b = append(append(b, 'E'), q.Entity...)
		return
	}
	b = append(b, 'M')
	names := ks.names[:0]
	for name, c := range q.Elements {
		if c > 0 { // zero counts are ignored by queries, so they can't split keys
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		b = binary.BigEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		b = binary.BigEndian.AppendUint32(b, q.Elements[name])
	}
	ks.b, ks.names = b, names
}
