package server

import (
	"container/list"
	"context"
	"sync"
)

// lru is the server's one cache shape: a map bounded at a fixed entry
// count with least-recently-used eviction, solve-path hit/miss counters,
// first-writer-wins insertion, and a load path that coalesces concurrent
// misses on one key into one call of the loader. Both the graph cache
// and the solve cache are instances.
//
// An alias names another key: a load under the alias finds the entry
// stored under the key it names. The graph cache files graphs under their
// content hash and aliases the "corpus:…"/"spec:…" references that built
// them. An alias is dropped when its entry is evicted.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	items   map[K]*list.Element // values are *lruItem[K, V]
	order   *list.List          // front = most recently used
	alias   map[K]K
	flights map[K]*flight[V]
	hits    int64
	misses  int64
}

type lruItem[K comparable, V any] struct {
	key     K
	val     V
	aliases []K
}

// flight is one loader call in progress; done is closed once val and err
// are final.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		items:   make(map[K]*list.Element),
		order:   list.New(),
		alias:   make(map[K]K),
		flights: make(map[K]*flight[V]),
	}
}

// get returns the value under key (or under the key it aliases), counting
// a hit or a miss.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookup(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// peek returns the value under key without counting the lookup or
// refreshing the entry's recency.
func (c *lru[K, V]) peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruItem[K, V]).val, true
	}
	var zero V
	return zero, false
}

// lookup finds key or its alias and marks the entry most recently used.
// Callers hold mu.
func (c *lru[K, V]) lookup(key K) (V, bool) {
	if k, ok := c.alias[key]; ok {
		key = k
	}
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// add stores v under key unless key is already resident, in which case
// the resident value wins (racing writers hold equal values by the
// determinism contract, so it does not matter which), and makes each of
// names an alias of key. It returns the resident value and whether it
// was already there. Adding never counts as a lookup.
func (c *lru[K, V]) add(key K, v V, names ...K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(key, v, names...)
}

func (c *lru[K, V]) addLocked(key K, v V, names ...K) (V, bool) {
	el, existed := c.items[key]
	if existed {
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&lruItem[K, V]{key: key, val: v})
		c.items[key] = el
	}
	it := el.Value.(*lruItem[K, V])
	for _, name := range names {
		if name != key {
			c.alias[name] = key
			it.aliases = append(it.aliases, name)
		}
	}
	for c.order.Len() > c.cap {
		ev := c.order.Remove(c.order.Back()).(*lruItem[K, V])
		delete(c.items, ev.key)
		for _, a := range ev.aliases {
			if c.alias[a] == ev.key {
				delete(c.alias, a)
			}
		}
	}
	return it.val, existed
}

// load returns the value under key, calling fn on a miss. A resident
// value counts a hit; the caller that runs fn — the leader — counts the
// miss, and concurrent callers with the same key wait for its result
// instead of calling fn again, reporting hit=true because they did no
// loading themselves. A waiter whose ctx ends first returns ctx.Err(),
// while the leader runs fn to completion, so its value still lands in
// the cache for every later caller. An error from fn reaches the leader
// and its waiters and is not cached.
//
// fn returns the value and the key it is stored under. That is key
// itself unless loading reveals the entry's real key — a graph built from
// a name is filed under its content hash — in which case key becomes an
// alias of it. Storing the value, setting the alias and ending the flight
// happen under one lock hold, so no caller can miss all three and load
// again.
func (c *lru[K, V]) load(ctx context.Context, key K, fn func() (K, V, error)) (V, bool, error) {
	c.mu.Lock()
	if v, ok := c.lookup(key); ok {
		c.hits++
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			var zero V
			return zero, false, ctx.Err()
		}
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	k, v, err := fn()
	c.mu.Lock()
	if err == nil {
		v, _ = c.addLocked(k, v, key)
	}
	delete(c.flights, key)
	c.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
	return v, false, err
}

// values returns the resident values, most recently used first.
func (c *lru[K, V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		vs = append(vs, el.Value.(*lruItem[K, V]).val)
	}
	return vs
}

// counters returns the resident entry count and the cumulative hit and
// miss counts.
func (c *lru[K, V]) counters() (n int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}
