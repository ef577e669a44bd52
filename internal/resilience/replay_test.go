package resilience

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReplayCacheReplaysWithinTTL(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	ctx := context.Background()
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }

	v, replayed, err := c.Do(ctx, "k", fn)
	if err != nil || v != 42 || replayed {
		t.Fatalf("first Do = (%v, %v, %v), want (42, false, nil)", v, replayed, err)
	}
	v, replayed, err = c.Do(ctx, "k", fn)
	if err != nil || v != 42 || !replayed {
		t.Fatalf("second Do = (%v, %v, %v), want (42, true, nil)", v, replayed, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	// A different key executes fresh.
	if _, replayed, _ := c.Do(ctx, "other", fn); replayed {
		t.Fatal("distinct key replayed")
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

func TestReplayCacheTTLExpiry(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	clock := newFakeClock()
	c.SetClock(clock.now)
	ctx := context.Background()
	calls := 0
	fn := func() (int, error) { calls++; return calls, nil }

	c.Do(ctx, "k", fn)
	clock.advance(59 * time.Second)
	if v, replayed, _ := c.Do(ctx, "k", fn); !replayed || v != 1 {
		t.Fatalf("within TTL: (%v, %v), want (1, true)", v, replayed)
	}
	clock.advance(2 * time.Second)
	if v, replayed, _ := c.Do(ctx, "k", fn); replayed || v != 2 {
		t.Fatalf("after TTL: (%v, %v), want (2, false)", v, replayed)
	}
}

func TestReplayCacheCapacityEvictsOldest(t *testing.T) {
	c := NewReplayCache[int](2, time.Hour)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Do(ctx, key, func() (int, error) { return i, nil })
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	// k0 (oldest) evicted; k2 still cached.
	if _, replayed, _ := c.Do(ctx, "k0", func() (int, error) { return -1, nil }); replayed {
		t.Fatal("evicted key replayed")
	}
	if v, replayed, _ := c.Do(ctx, "k2", func() (int, error) { return -1, nil }); !replayed || v != 2 {
		t.Fatalf("k2 = (%v, %v), want (2, true)", v, replayed)
	}
}

func TestReplayCacheDoesNotCacheErrors(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Do(ctx, "k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if v, replayed, err := c.Do(ctx, "k", func() (int, error) { calls++; return 7, nil }); err != nil || replayed || v != 7 {
		t.Fatalf("retry after error = (%v, %v, %v), want (7, false, nil)", v, replayed, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

func TestReplayCacheCoalescesConcurrentCallers(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	ctx := context.Background()
	var executions atomic.Int32
	release := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	results := make([]int, callers)
	owners := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, replayed, err := c.Do(ctx, "k", func() (int, error) {
				executions.Add(1)
				<-release
				return 99, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
			owners[i] = !replayed
		}(i)
	}
	// Let the goroutines pile onto the key, then release the flight.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	ownerCount := 0
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
		if owners[i] {
			ownerCount++
		}
	}
	if ownerCount != 1 {
		t.Fatalf("%d callers claimed ownership, want exactly 1", ownerCount)
	}
}

func TestReplayCacheWaiterHonorsContext(t *testing.T) {
	c := NewReplayCache[int](8, time.Minute)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// checkOrder asserts the cache's eviction invariant: order holds every
// completed entry exactly once, soonest expiry first.
func checkOrder[V any](t *testing.T, c *ReplayCache[V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev time.Time
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*replayEntry[V])
		if c.entries[e.key] != e {
			t.Fatalf("order holds %q, which is not its live entry", e.key)
		}
		if e.expires.Before(prev) {
			t.Fatalf("order not sorted by expiry at %q", e.key)
		}
		prev = e.expires
	}
}

// TestReplayCacheSeedOutOfOrder: recovery can Seed entries whose
// completion times are not in call order. Expiry must still evict
// exactly the expired ones, and capacity eviction the oldest completed.
func TestReplayCacheSeedOutOfOrder(t *testing.T) {
	c := NewReplayCache[string](8, time.Minute)
	clock := newFakeClock()
	c.SetClock(clock.now)
	base := clock.now()
	for _, s := range []struct {
		key string
		ago time.Duration
	}{{"new", 10 * time.Second}, {"old", 50 * time.Second}, {"mid", 30 * time.Second}} {
		if !c.Seed(s.key, s.key, base.Add(-s.ago)) {
			t.Fatalf("Seed(%s) refused", s.key)
		}
	}
	checkOrder(t, c)
	clock.advance(20 * time.Second) // "old" expired, the others live
	ctx := context.Background()
	fresh := func() (string, error) { return "fresh", nil }
	if v, replayed, _ := c.Do(ctx, "old", fresh); replayed || v != "fresh" {
		t.Fatalf("expired seed: (%v, %v), want (fresh, false)", v, replayed)
	}
	for _, key := range []string{"new", "mid"} {
		if v, replayed, _ := c.Do(ctx, key, fresh); !replayed || v != key {
			t.Fatalf("live seed %s: (%v, %v), want (%s, true)", key, v, replayed, key)
		}
	}
	checkOrder(t, c)

	small := NewReplayCache[string](2, time.Minute)
	small.SetClock(clock.now)
	now := clock.now()
	small.Seed("b", "b", now.Add(-10*time.Second))
	small.Seed("c", "c", now.Add(-5*time.Second))
	small.Seed("a", "a", now.Add(-40*time.Second)) // oldest, seeded last
	checkOrder(t, small)
	if n := small.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if v, replayed, _ := small.Do(ctx, "a", fresh); replayed || v != "fresh" {
		t.Fatalf("oldest-completed entry survived capacity eviction: (%v, %v)", v, replayed)
	}
}

// TestReplayCacheClockStepsBack: an entry completed after the clock
// moved backwards expires before entries completed earlier, and must
// be evicted on time even though it sits newest in call order.
func TestReplayCacheClockStepsBack(t *testing.T) {
	c := NewReplayCache[string](8, time.Minute)
	clock := newFakeClock()
	c.SetClock(clock.now)
	ctx := context.Background()
	val := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }

	c.Do(ctx, "a", val("a")) // expires t0+60s
	clock.advance(-30 * time.Second)
	c.Do(ctx, "b", val("b")) // expires t0+30s
	checkOrder(t, c)
	clock.advance(75 * time.Second) // t0+45s: b expired, a live
	if v, replayed, _ := c.Do(ctx, "b", val("fresh")); replayed || v != "fresh" {
		t.Fatalf("expired b: (%v, %v), want (fresh, false)", v, replayed)
	}
	if v, replayed, _ := c.Do(ctx, "a", val("fresh")); !replayed || v != "a" {
		t.Fatalf("live a: (%v, %v), want (a, true)", v, replayed)
	}
	checkOrder(t, c)
}

// BenchmarkReplayCacheDoFull: a fresh key into a cache held at the
// broker's replay capacity (market.ReplayCapacity), so every Do also
// evicts the oldest entry.
func BenchmarkReplayCacheDoFull(b *testing.B) {
	const capacity = 4096
	c := NewReplayCache[int](capacity, time.Hour)
	ctx := context.Background()
	fn := func() (int, error) { return 1, nil }
	for i := 0; i < capacity; i++ {
		c.Do(ctx, strconv.Itoa(-1-i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(ctx, strconv.Itoa(i), fn)
	}
}
