package runtime

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
	// Epoch counts invalidations: every entry currently cached was inserted
	// at this epoch, so a serving layer that bumps the epoch on model swaps
	// can prove no plan outlives the model that chose it.
	Epoch uint64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a thread-safe least-recently-used cache with hit/miss/eviction
// counters, generic over the key (the runtime keys plans on the query
// fingerprint alone: everything else that would change a plan empties the
// cache instead). The zero capacity means "disabled": every Get misses and
// Put is a no-op, so callers never need to special-case an absent cache.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[K]*list.Element

	hits, misses, evictions, epoch uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU creates an LRU holding at most capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	return &LRU[K, V]{cap: capacity, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns the cached value for key and whether it was present, promoting
// the entry to most-recently-used. A disabled cache (capacity 0) misses
// without counting: there is no cache whose effectiveness the counters
// could describe, so stats stay zeroed instead of reporting a misleading
// 0% hit rate.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	if c.cap == 0 {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes an entry, evicting the least-recently-used one
// when over capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
}

// Invalidate drops every entry and advances the epoch (hit/miss counters are
// preserved). Called whenever the models behind the cached plans change, i.e.
// after training or a model hot-swap.
func (c *LRU[K, V]) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = map[K]*list.Element{}
	c.epoch++
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *LRU[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.cap,
		Epoch:     c.epoch,
	}
}
