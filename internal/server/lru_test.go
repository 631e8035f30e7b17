package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU[string, int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok { // a becomes most recently used
		t.Fatal("a missing")
	}
	c.add("c", 3) // evicts b, the least recently used
	if got := c.values(); !slices.Equal(got, []int{3, 1}) {
		t.Fatalf("values = %v, want [3 1]", got)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if n, hits, misses := c.counters(); n != 2 || hits != 1 || misses != 1 {
		t.Fatalf("counters = %d/%d/%d, want 2/1/1", n, hits, misses)
	}
	// peek neither counts nor refreshes: a stays least recently used.
	if v, ok := c.peek("a"); !ok || v != 1 {
		t.Fatalf("peek(a) = %d, %v", v, ok)
	}
	c.add("d", 4)
	if _, ok := c.peek("a"); ok {
		t.Fatal("peek refreshed a's recency")
	}
	if _, hits, misses := c.counters(); hits != 1 || misses != 1 {
		t.Fatalf("peek moved the counters: %d/%d", hits, misses)
	}
}

func TestLRUFirstWriterWins(t *testing.T) {
	c := newLRU[string, int](4)
	if v, existed := c.add("k", 1); existed || v != 1 {
		t.Fatalf("first add = %d, %v", v, existed)
	}
	if v, existed := c.add("k", 2); !existed || v != 1 {
		t.Fatalf("second add = %d, %v; want the resident 1", v, existed)
	}
	// A load whose fn files its value under a key that is already resident
	// gets the resident value, and its own key becomes an alias.
	v, hit, err := c.load(context.Background(), "name", func() (string, int, error) { return "k", 3, nil })
	if err != nil || hit || v != 1 {
		t.Fatalf("load = %d, %v, %v; want the resident 1 as a miss", v, hit, err)
	}
	if v, ok := c.get("name"); !ok || v != 1 {
		t.Fatalf("alias lookup = %d, %v", v, ok)
	}
}

func TestLRUAliasDroppedOnEviction(t *testing.T) {
	c := newLRU[string, int](1)
	load := func(key, real string, v int) {
		t.Helper()
		if _, _, err := c.load(context.Background(), key, func() (string, int, error) { return real, v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	load("spec:a", "id-a", 1)
	load("spec:b", "id-b", 2) // evicts id-a and with it the spec:a alias
	if len(c.alias) != 1 || c.alias["spec:b"] != "id-b" {
		t.Fatalf("aliases after eviction = %v", c.alias)
	}
	calls := 0
	c.load(context.Background(), "spec:a", func() (string, int, error) { calls++; return "id-a", 1, nil })
	if calls != 1 {
		t.Fatal("an evicted entry's alias still answered")
	}
}

// TestLRULoadWaiterCanceled: a waiter whose context dies mid-load returns
// ctx.Err() at once, while the leader runs its loader to completion and
// the value lands in the cache for later callers.
func TestLRULoadWaiterCanceled(t *testing.T) {
	c := newLRU[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	var leader sync.WaitGroup
	leader.Add(1)
	go func() {
		defer leader.Done()
		v, hit, err := c.load(context.Background(), "k", func() (string, int, error) {
			close(started)
			<-release
			return "k", 7, nil
		})
		if err != nil || hit || v != 7 {
			t.Errorf("leader load = %d, %v, %v", v, hit, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, _, err := c.load(ctx, "k", func() (string, int, error) {
			t.Error("waiter ran the loader")
			return "k", 0, nil
		})
		waited <- err
	}()
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	leader.Wait()
	if v, ok := c.get("k"); !ok || v != 7 {
		t.Fatalf("leader's value did not land: %d, %v", v, ok)
	}
	if _, hits, misses := c.counters(); hits != 1 || misses != 1 {
		t.Fatalf("counters = %d/%d, want one leader miss and one hit", hits, misses)
	}
}

// TestLRULoadErrorNotCached: a loader's error reaches its caller and is
// not cached, so the next load of the key calls the loader again.
func TestLRULoadErrorNotCached(t *testing.T) {
	c := newLRU[string, int](4)
	boom := errors.New("boom")
	if _, _, err := c.load(context.Background(), "k", func() (string, int, error) { return "", 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("load error = %v, want boom", err)
	}
	if n, _, _ := c.counters(); n != 0 {
		t.Fatalf("%d entries after a failed load", n)
	}
	v, hit, err := c.load(context.Background(), "k", func() (string, int, error) { return "k", 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("load after error = %d, %v, %v; want a fresh miss", v, hit, err)
	}
}
