package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"roadsocial/internal/mac"
)

// testCache returns an effectively unweighted cache (huge cost budget), the
// shape the pre-weighting tests exercise.
func testCache(capacity int) *prepCache {
	return newPrepCache(capacity, 1<<40)
}

// TestPrepCacheSingleflight: concurrent requests for one key coalesce onto
// a single build and all observe the same prepared pointer.
func TestPrepCacheSingleflight(t *testing.T) {
	c := testCache(8)
	var builds atomic.Int64
	gate := make(chan struct{})
	want := &mac.Prepared{}
	const workers = 16
	var wg sync.WaitGroup
	results := make([]*mac.Prepared, workers)
	hits := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, hit, err := c.getOrBuild("k", "", 0, nil, func() (*mac.Prepared, error) {
				builds.Add(1)
				<-gate
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = p, hit
		}(i)
	}
	// Let every goroutine reach the cache before releasing the build.
	for c.stats().Misses+c.stats().Coalesced < workers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	misses := 0
	for i, p := range results {
		if p != want {
			t.Fatalf("worker %d got %p, want %p", i, p, want)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d workers reported a miss, want exactly 1", misses)
	}
	st := c.stats()
	if st.Misses != 1 || st.Coalesced != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, workers-1)
	}
}

// TestPrepCacheLRUEviction: capacity bounds resident entries; the least
// recently used entry is evicted and rebuilt on next use.
func TestPrepCacheLRUEviction(t *testing.T) {
	c := testCache(2)
	builds := map[string]int{}
	get := func(key string) {
		t.Helper()
		_, _, err := c.getOrBuild(key, "", 0, nil, func() (*mac.Prepared, error) {
			builds[key]++
			return &mac.Prepared{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: LRU order is now [b, a]
	get("c") // evicts b
	if st := c.stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	get("a") // still resident
	get("b") // rebuilt
	if builds["a"] != 1 || builds["b"] != 2 || builds["c"] != 1 {
		t.Fatalf("builds = %v, want a:1 b:2 c:1", builds)
	}
}

// TestPrepCacheWeightedEviction: admission is cost-aware — one expensive
// entry displaces several cheap ones, in LRU order, while the cheap ones
// alone coexist under the same budget.
func TestPrepCacheWeightedEviction(t *testing.T) {
	c := newPrepCache(64, 10)
	costs := map[*mac.Prepared]int64{}
	c.costOf = func(p *mac.Prepared) int64 { return costs[p] }
	builds := map[string]int{}
	get := func(key string, cost int64) {
		t.Helper()
		_, _, err := c.getOrBuild(key, "", 0, nil, func() (*mac.Prepared, error) {
			builds[key]++
			p := &mac.Prepared{}
			costs[p] = cost
			return p, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	get("a", 3)
	get("b", 3)
	get("c", 3) // 9/10 used: all three fit
	if st := c.stats(); st.Entries != 3 || st.CostUsed != 9 || st.Evictions != 0 {
		t.Fatalf("cheap entries: stats = %+v, want 3 entries, cost 9, no evictions", st)
	}
	// 9+8 = 17 > 10: the LRU tail sheds a, then b, then c (each removal
	// still leaves the budget exceeded until only big remains).
	get("big", 8)
	if st := c.stats(); st.Entries != 1 || st.CostUsed != 8 || st.Evictions != 3 {
		t.Fatalf("big admission: stats = %+v, want 1 entry, cost 8, 3 evictions", st)
	}
	// a was evicted, so it rebuilds — and its admission displaces big.
	get("a", 3)
	st := c.stats()
	if st.Entries != 1 || st.CostUsed != 3 || builds["a"] != 2 {
		t.Fatalf("after re-admission: stats = %+v builds = %v, want a rebuilt and resident alone", st, builds)
	}
}

// TestPrepCacheOversizeEntryAdmitted: an entry larger than the whole budget
// is still admitted (single-flight must produce an answer) and simply
// evicts everything else; the next admission displaces it.
func TestPrepCacheOversizeEntryAdmitted(t *testing.T) {
	c := newPrepCache(64, 10)
	costs := map[*mac.Prepared]int64{}
	c.costOf = func(p *mac.Prepared) int64 { return costs[p] }
	get := func(key string, cost int64) {
		t.Helper()
		p, _, err := c.getOrBuild(key, "", 0, nil, func() (*mac.Prepared, error) {
			p := &mac.Prepared{}
			costs[p] = cost
			return p, nil
		})
		if err != nil || p == nil {
			t.Fatalf("get %s: p=%v err=%v", key, p, err)
		}
	}
	get("small", 2)
	get("huge", 50)
	if st := c.stats(); st.Entries != 1 || st.CostUsed != 50 {
		t.Fatalf("oversize admission: stats = %+v, want only the huge entry", st)
	}
	get("small", 2)
	if st := c.stats(); st.Entries != 1 || st.CostUsed != 2 {
		t.Fatalf("after displacement: stats = %+v, want only the small entry", st)
	}
}

// TestPrepCacheSingleflightUnderWeightPressure: even when the budget forces
// immediate eviction of the new entry's predecessors, concurrent callers of
// the same key still coalesce onto one build.
func TestPrepCacheSingleflightUnderWeightPressure(t *testing.T) {
	c := newPrepCache(64, 1) // any real entry exceeds the budget
	costs := map[*mac.Prepared]int64{}
	var costsMu sync.Mutex
	c.costOf = func(p *mac.Prepared) int64 {
		costsMu.Lock()
		defer costsMu.Unlock()
		return costs[p]
	}
	var builds atomic.Int64
	gate := make(chan struct{})
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := c.getOrBuild("k", "", 0, nil, func() (*mac.Prepared, error) {
				builds.Add(1)
				<-gate
				p := &mac.Prepared{}
				costsMu.Lock()
				costs[p] = 100
				costsMu.Unlock()
				return p, nil
			})
			if err != nil || p == nil {
				t.Errorf("p=%v err=%v", p, err)
			}
		}()
	}
	for c.stats().Misses+c.stats().Coalesced < workers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times under weight pressure, want 1", got)
	}
}

// TestPrepCacheErrorHandling: transient errors are not cached (the next
// request retries); ErrNoCommunity is a deterministic outcome and is.
func TestPrepCacheErrorHandling(t *testing.T) {
	c := testCache(8)
	calls := 0
	transient := errors.New("boom")
	build := func() (*mac.Prepared, error) {
		calls++
		if calls == 1 {
			return nil, transient
		}
		return &mac.Prepared{}, nil
	}
	if _, _, err := c.getOrBuild("x", "", 0, nil, build); !errors.Is(err, transient) {
		t.Fatalf("first build: %v, want transient error", err)
	}
	if p, hit, err := c.getOrBuild("x", "", 0, nil, build); err != nil || hit || p == nil {
		t.Fatalf("retry: p=%v hit=%v err=%v, want fresh successful build", p, hit, err)
	}
	if calls != 2 {
		t.Fatalf("build calls = %d, want 2", calls)
	}

	noCommCalls := 0
	noComm := func() (*mac.Prepared, error) {
		noCommCalls++
		return nil, fmt.Errorf("wrapped: %w", mac.ErrNoCommunity)
	}
	if _, _, err := c.getOrBuild("y", "", 0, nil, noComm); !errors.Is(err, mac.ErrNoCommunity) {
		t.Fatalf("no-community build: %v", err)
	}
	if _, hit, err := c.getOrBuild("y", "", 0, nil, noComm); !errors.Is(err, mac.ErrNoCommunity) || !hit {
		t.Fatalf("no-community repeat: hit=%v err=%v, want cached negative entry", hit, err)
	}
	if noCommCalls != 1 {
		t.Fatalf("no-community build calls = %d, want 1 (negative caching)", noCommCalls)
	}
}

// TestPrepCacheCancelWaiter: a canceled waiter aborts its own wait without
// disturbing the shared build.
func TestPrepCacheCancelWaiter(t *testing.T) {
	c := testCache(8)
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild("k", "", 0, nil, func() (*mac.Prepared, error) {
			<-gate
			return &mac.Prepared{}, nil
		})
		done <- err
	}()
	for c.stats().Misses == 0 {
		runtime.Gosched()
	}
	cancel := make(chan struct{})
	close(cancel)
	if _, _, err := c.getOrBuild("k", "", 0, cancel, nil); !errors.Is(err, mac.ErrCanceled) {
		t.Fatalf("canceled waiter: %v, want ErrCanceled", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("builder failed: %v", err)
	}
	if p, hit, err := c.getOrBuild("k", "", 0, nil, nil); err != nil || !hit || p == nil {
		t.Fatalf("after build: p=%v hit=%v err=%v, want cached entry", p, hit, err)
	}
}

// TestPrepKeyCanonical: the key is order-insensitive in Q and sensitive to
// every component, including the engine variant and the dataset
// registration generation (so a re-created dataset never hits its
// predecessor's entries).
func TestPrepKeyCanonical(t *testing.T) {
	base := prepKey("ds", 1, mac.VariantCore, []int32{3, 1, 2}, 4, 100)
	if prepKey("ds", 1, mac.VariantCore, []int32{1, 2, 3}, 4, 100) != base {
		t.Fatal("Q order must not matter")
	}
	for name, other := range map[string]string{
		"dataset": prepKey("ds2", 1, mac.VariantCore, []int32{1, 2, 3}, 4, 100),
		"gen":     prepKey("ds", 2, mac.VariantCore, []int32{1, 2, 3}, 4, 100),
		"variant": prepKey("ds", 1, mac.VariantTruss, []int32{1, 2, 3}, 4, 100),
		"q":       prepKey("ds", 1, mac.VariantCore, []int32{1, 2, 4}, 4, 100),
		"k":       prepKey("ds", 1, mac.VariantCore, []int32{1, 2, 3}, 5, 100),
		"t":       prepKey("ds", 1, mac.VariantCore, []int32{1, 2, 3}, 4, 101),
	} {
		if other == base {
			t.Fatalf("%s must change the key", name)
		}
	}
}
