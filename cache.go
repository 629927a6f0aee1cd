package vsmartjoin

// The query result cache. Serving workloads are zipf-skewed: a few head
// queries repeat constantly while the long tail is seen once, so a small
// bounded LRU in front of the probe→prune→verify pipeline absorbs the
// head at near-zero cost. Correctness comes from generation stamping,
// not timers: every Apply bumps the index generation under the write
// lock, and a miss computes its answer in one read hold and stamps it
// with the generation read in that hold, so an entry is exactly the
// answer at its stamp. A lookup reads the generation before it looks up
// the query's elements and hits only an entry of that stamp: element IDs
// are never reassigned and are interned only by an Apply, so the key is
// the query's key at that generation, and the hit is the answer of the
// state current when the lookup began — a racing mutation can cause a
// false miss, never a stale hit. A miss whose lookup found an element
// unknown redoes the lookup, and its key, in the hold when the
// generation has moved since (query.go).
//
// Admission: an answer is stored on its key's second miss, not its
// first (TinyLFU's doorkeeper: Einziger, Friedman & Manes, ACM TOS
// 2017). The doorkeeper is a table of fingerprints of recent misses,
// one atomic word a slot; a miss whose fingerprint is not in its slot
// writes it there and returns, with no lock, no allocation and no
// eviction, so the one-off tail of a skewed stream costs the cache
// nothing. The price is one extra miss per key that does recur. The
// table has the power of two ≥ 2×capacity slots, sized by the LRU:
// were every miss stored, each would evict one entry, so a key that
// recurs only after more misses than the cache holds would be evicted
// before its next use anyway, and remembering misses for much longer
// than that buys nothing.
import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"vsmartjoin/internal/index"
)

// defaultCacheSize is the result-cache capacity when IndexOptions leaves
// CacheSize at 0. Sized for the head of a zipf-skewed query population:
// with s ≈ 1.4 the top ~1k distinct queries cover the large majority of
// a skewed stream.
const defaultCacheSize = 1024

// queryCache is a bounded LRU over interned query keys (appendKey),
// behind a doorkeeper. The LRU sits behind one mutex — lookups copy in
// and out, so the critical section is short and the cache never holds a
// reference a caller could mutate. The doorkeeper's slots are atomic
// and need no lock.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	seed maphash.Seed
	seen []atomic.Uint64 // fingerprints of recent misses, one per slot; 0 = empty

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
		seed:  maphash.MakeSeed(),
		seen:  make([]atomic.Uint64, 1<<bits.Len(uint(2*capacity-1))),
	}
}

// cloneResult copies an answer so the cache never shares a slice with
// a caller.
func cloneResult(r QueryResult) QueryResult {
	return QueryResult{Matches: slices.Clone(r.Matches), Neighbors: slices.Clone(r.Neighbors)}
}

// get returns a copy of the cached answer for key if one exists and was
// computed at the given generation. A stale entry (an older generation)
// is evicted and reads as a miss; a newer one, filled by a query that
// began after this one read gen, is left for the lookups it can serve.
// The key is raw bytes so the lookup stays allocation-free: Go elides
// the string conversion in a map index expression, and only put
// materializes the string.
func (c *queryCache) get(key []byte, gen uint64) (QueryResult, bool) {
	c.mu.Lock()
	el, ok := c.byKey[string(key)]
	if !ok {
		c.mu.Unlock()
		return QueryResult{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		if ent.gen < gen {
			c.lru.Remove(el)
			delete(c.byKey, ent.key)
		}
		c.mu.Unlock()
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
// racing mutation then yields a false miss, never a stale hit). An
// entry already under key is replaced only by a newer generation's
// answer: a slow miss landing after a faster one of a later generation
// must not swap a current answer for one that can never hit. A full
// cache evicts its least-recently-used entry and reuses its node. The
// copies are made before the lock is taken. A key whose fingerprint is
// not in its doorkeeper slot is not stored: its fingerprint is, and the
// key's next miss stores the answer. The low bit of a fingerprint is
// set, so an empty slot matches no key.
func (c *queryCache) put(key []byte, gen uint64, res QueryResult) {
	h := maphash.Bytes(c.seed, key)
	if slot := &c.seen[h&uint64(len(c.seen)-1)]; slot.Load() != h|1 {
		slot.Store(h | 1)
		return
	}
	k, res := string(key), cloneResult(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		if ent := el.Value.(*cacheEntry); gen > ent.gen {
			ent.gen, ent.res = gen, res
		}
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() < c.cap {
		c.byKey[k] = c.lru.PushFront(&cacheEntry{key: k, gen: gen, res: res})
		return
	}
	el := c.lru.Back()
	ent := el.Value.(*cacheEntry)
	delete(c.byKey, ent.key)
	*ent = cacheEntry{key: k, gen: gen, res: res}
	c.lru.MoveToFront(el)
	c.byKey[k] = el
}

// len reports the number of live entries (stale ones included until
// their next lookup evicts them).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// appendKey appends the cache key of q, resolved by the index into iq,
// to b. The layout: the query kind byte, the measure name
// (NUL-terminated — measure names never contain NUL), the kind's
// parameter (threshold bits or k), then the subject as the index
// resolved it — 'E' and the entity name, or 'M', iq.Extra's Card, UCard
// and SumSq, and the (element ID, count) pairs of iq.Set in element
// order, all fixed-width big-endian. Every field but the entity name is
// fixed-width and the name comes last, so distinct subjects cannot
// alias. The inner answer depends only on (Set, Extra, t or k), so two
// element queries whose unknown names differ but whose counts match
// share one key; element IDs are never reassigned, and a new one is
// interned only inside an Apply, which bumps the generation every entry
// is stamped with. q has passed CheckQuery, so exactly the fields its
// kind reads are meaningful.
func appendKey(b []byte, measure string, q Query, iq index.Query) []byte {
	param := uint64(q.K)
	if q.Kind == KindThreshold {
		param = math.Float64bits(q.Threshold)
	}
	b = append(b, byte(q.Kind))
	b = append(b, measure...)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint64(b, param)
	if q.Entity != "" {
		return append(append(b, 'E'), q.Entity...)
	}
	b = append(b, 'M')
	b = binary.BigEndian.AppendUint64(b, iq.Extra.Card)
	b = binary.BigEndian.AppendUint64(b, iq.Extra.UCard)
	b = binary.BigEndian.AppendUint64(b, iq.Extra.SumSq)
	for _, e := range iq.Set.Entries {
		b = binary.BigEndian.AppendUint64(b, uint64(e.Elem))
		b = binary.BigEndian.AppendUint32(b, e.Count)
	}
	return b
}
