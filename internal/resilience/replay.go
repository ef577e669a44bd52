package resilience

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// ReplayCache makes keyed operations idempotent: the first caller of
// a key executes the operation, every later caller within the TTL
// gets the stored result back instead of re-executing (and
// re-charging). Concurrent callers of an in-flight key coalesce onto
// the one execution (singleflight), so a client retrying while its
// first attempt is still running cannot trigger a duplicate either.
//
// Only successes are stored: a failed execution is broadcast to the
// callers that coalesced onto it and then forgotten, so the next
// attempt with the same key executes fresh.
//
// The cache is bounded two ways: entries expire TTL after completion,
// and when the entry count exceeds the capacity the soonest-expiring
// completed entries are evicted (in-flight entries are never evicted).
// Completed entries are kept ordered by expiry, so eviction visits only
// the entries it removes plus one.
type ReplayCache[V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	now      func() time.Time
	entries  map[string]*replayEntry[V]
	order    *list.List // completed entries, soonest expiry first
}

type replayEntry[V any] struct {
	key     string
	done    chan struct{} // closed when the flight completes
	val     V
	err     error
	expires time.Time
}

// NewReplayCache returns a cache holding at most capacity completed
// entries for ttl each. capacity and ttl must be positive.
func NewReplayCache[V any](capacity int, ttl time.Duration) *ReplayCache[V] {
	if capacity <= 0 {
		panic("resilience: replay cache capacity must be positive")
	}
	if ttl <= 0 {
		panic("resilience: replay cache ttl must be positive")
	}
	return &ReplayCache[V]{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
		entries:  make(map[string]*replayEntry[V]),
		order:    list.New(),
	}
}

// SetClock overrides the cache's clock; tests use it to drive TTL
// expiry deterministically. Not safe to call concurrently with Do.
func (c *ReplayCache[V]) SetClock(now func() time.Time) { c.now = now }

// Do executes fn once per key: the first caller runs it, concurrent
// callers with the same key wait for that run, and later callers
// within the TTL replay the stored result. replayed reports whether
// the result came from a previous or shared execution rather than a
// fresh one owned by this caller. If ctx is done while waiting on
// another caller's flight, Do returns ctx's error (the flight itself
// keeps running and its result is still cached).
func (c *ReplayCache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, replayed bool, err error) {
	c.mu.Lock()
	c.evictLocked()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.val, true, e.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	e := &replayEntry[V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = fn()

	c.mu.Lock()
	if e.err != nil {
		// Failures are not replayable: drop the entry so the next
		// attempt executes fresh. Waiters already coalesced onto this
		// flight still observe the error through the closed channel.
		delete(c.entries, key)
	} else {
		e.expires = c.now().Add(c.ttl)
		c.insertLocked(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, false, e.err
}

// Seed installs a completed successful entry as if Do had executed it
// at completedAt — the recovery path uses it to rebuild idempotency
// state from a journal after a restart, so a client retry that
// straddles the crash still replays the original result. The entry
// expires at completedAt+TTL exactly as the original would have;
// already-expired entries are ignored, as is a key that is present
// (live state wins over the journal). Reports whether the entry was
// installed.
func (c *ReplayCache[V]) Seed(key string, v V, completedAt time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	expires := completedAt.Add(c.ttl)
	if !c.now().Before(expires) {
		return false
	}
	e := &replayEntry[V]{key: key, done: make(chan struct{}), val: v, expires: expires}
	close(e.done)
	c.insertLocked(e)
	c.entries[key] = e
	c.evictLocked()
	return true
}

// Len returns the number of entries (completed and in-flight).
func (c *ReplayCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// insertLocked files a completed entry into order by expiry. It walks
// back from the tail, so a Do completion under a monotone clock is
// O(1); only a Seed older than entries already present (recovery
// seeds in journal-map order) walks further.
func (c *ReplayCache[V]) insertLocked(e *replayEntry[V]) {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		if !el.Value.(*replayEntry[V]).expires.After(e.expires) {
			c.order.InsertAfter(e, el)
			return
		}
	}
	c.order.PushFront(e)
}

// evictLocked removes expired entries and, if still over capacity,
// the soonest-expiring completed entries. order is sorted by expiry,
// so both loops stop at the first entry they keep.
func (c *ReplayCache[V]) evictLocked() {
	now := c.now()
	for el := c.order.Front(); el != nil; el = c.order.Front() {
		if !now.After(el.Value.(*replayEntry[V]).expires) {
			break
		}
		c.removeLocked(el)
	}
	for len(c.entries) > c.capacity && c.order.Len() > 0 {
		c.removeLocked(c.order.Front())
	}
}

func (c *ReplayCache[V]) removeLocked(el *list.Element) {
	delete(c.entries, el.Value.(*replayEntry[V]).key)
	c.order.Remove(el)
}
