package service

import (
	"container/list"
	"sync"

	"smoothproc/internal/metrics"
)

// LRU is a fixed-capacity least-recently-used cache, safe for concurrent
// use. The service keeps three, all read-through caches in front of the
// content-addressed store: compiled specs keyed by content hash (the
// compile-once/run-many split), solve results keyed by
// (spec-hash, solve-params) so repeat queries skip the tree search
// entirely, and live solve sessions. Hit and miss counts feed the
// /metrics endpoint.
//
// Entries can be pinned: a pinned entry is in use by a handler (a
// session mid-solve) and is never evicted, even when that means
// temporarily exceeding capacity — evicting live state would fork a
// session into two divergent copies.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front is most recently used
	items map[K]*list.Element
	pins  map[K]int // refcounts; absent means unpinned

	hits   metrics.Counter
	misses metrics.Counter
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU builds a cache holding at most capacity entries; capacity < 1
// is treated as 1.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
		pins:  make(map[K]int),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least recently used
// entry when the cache is full.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		c.evictLocked()
	}
}

// evictLocked removes the least recently used unpinned entry. When
// every entry is pinned nothing is evicted — the cache runs over
// capacity until a pin drops, which is strictly safer than discarding
// state a handler holds a reference to.
func (c *LRU[K, V]) evictLocked() {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		key := el.Value.(*lruEntry[K, V]).key
		if c.pins[key] > 0 {
			continue
		}
		c.ll.Remove(el)
		delete(c.items, key)
		return
	}
}

// Pin returns the cached value like Get and atomically increments its
// pin count, shielding the entry from eviction until the matching
// Unpin. Callers must Unpin exactly once per successful Pin.
func (c *LRU[K, V]) Pin(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.pins[k]++
		c.hits.Inc()
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// PutPinned inserts like Put with the new entry already pinned — the
// atomic create-and-pin handlers need when materializing a session.
func (c *LRU[K, V]) PutPinned(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		c.pins[k]++
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	c.pins[k]++
	if c.ll.Len() > c.cap {
		c.evictLocked()
	}
}

// Unpin drops one pin reference. Once the count reaches zero the entry
// is evictable again (and is evicted immediately if the cache is over
// capacity). Unpinning an absent key is a no-op.
func (c *LRU[K, V]) Unpin(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.pins[k]
	if !ok {
		return
	}
	if n <= 1 {
		delete(c.pins, k)
		if c.ll.Len() > c.cap {
			c.evictLocked()
		}
		return
	}
	c.pins[k] = n - 1
}

// Remove drops k's entry even while it is pinned — for a value that
// went bad under its holders, which keep their reference. Pin counts
// are kept, so the holders' Unpins stay balanced.
func (c *LRU[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.Remove(el)
		delete(c.items, k)
	}
}

// Len returns the current number of entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits returns the number of Get calls served from the cache.
func (c *LRU[K, V]) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Get calls that found nothing.
func (c *LRU[K, V]) Misses() int64 { return c.misses.Load() }
