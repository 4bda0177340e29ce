package service

import "testing"

func TestLRUBasics(t *testing.T) {
	c := NewLRU[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order broken")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestLRURefreshExistingKey(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: must not evict
	if _, ok := c.Get("b"); !ok {
		t.Error("refreshing an existing key evicted another entry")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("refreshed value = %d, want 10", v)
	}
}

func TestLRUCounters(t *testing.T) {
	c := NewLRU[string, int](4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 2 and 1", c.Hits(), c.Misses())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := NewLRU[string, int](0)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Errorf("capacity-clamped cache holds %d entries, want 1", c.Len())
	}
}

// Remove drops an entry even while it is pinned; the holders' Unpins
// stay balanced, and a replacement stored under the same key is pinned
// and evicted like any other entry.
func TestLRURemovePinned(t *testing.T) {
	c := NewLRU[string, int](1)
	c.PutPinned("a", 1)
	c.Remove("a")
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Fatalf("removed entry still cached (len %d)", c.Len())
	}
	c.Remove("a") // absent: no-op
	c.PutPinned("a", 2)
	c.Unpin("a") // the first holder's pin
	c.Put("b", 3)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("replacement evicted while still pinned: %d, %v", v, ok)
	}
	c.Unpin("a")
	c.Put("c", 4)
	if _, ok := c.Get("a"); ok {
		t.Error("replacement survived eviction after its last Unpin")
	}
}
