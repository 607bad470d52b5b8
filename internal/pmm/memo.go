package pmm

import (
	"maps"
	"sync"
	"sync/atomic"
)

// memo is a read-mostly concurrent map for tables that grow only with
// program shape (layouts, labels): a hit reads an immutable map through
// one atomic load, without locking or allocating; a miss builds the value
// under mu and publishes a copy of the map with it added. The zero value
// is an empty memo.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]V]
}

// load returns the value memoized under k, if any. It is small enough to
// inline, so a hit costs its caller no call.
func (c *memo[K, V]) load(k K) (v V, ok bool) {
	if m := c.m.Load(); m != nil {
		v, ok = (*m)[k]
	}
	return v, ok
}

// store is the miss path after load: it returns the value memoized under
// k, first storing build() there if there still is none. build runs under
// the memo's lock, at most once per key unless it panics.
func (c *memo[K, V]) store(k K, build func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var old map[K]V
	if m := c.m.Load(); m != nil {
		old = *m
	}
	if v, ok := old[k]; ok {
		return v
	}
	v := build()
	next := make(map[K]V, len(old)+1)
	maps.Copy(next, old)
	next[k] = v
	c.m.Store(&next)
	return v
}
