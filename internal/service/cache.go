package service

import (
	"container/list"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"sync"

	"roadsocial/client"
	"roadsocial/internal/mac"
)

// prepKey is the cache identity of a prepared state: dataset name, the
// dataset's registration generation, engine variant, and the canonical
// (sorted Q, k, t) signature. Two requests with the same key can share one
// mac.Prepared (the region may differ per request — Prepared resolves
// regions internally); the variant is part of the key because core and
// truss prepare different subgraphs from the same (Q, k, t). The
// generation is part of the key because the dataset lifecycle allows
// delete + re-create under one name: a request that resolved the old
// network can insert its prepared state after the delete's purge, and
// without the generation a search against the re-created dataset would
// hit that stale entry.
func prepKey(dataset string, gen uint64, variant mac.Variant, q []int32, k int, t float64) string {
	qs := append([]int32(nil), q...)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	b := make([]byte, 0, len(dataset)+len(variant)+2+4*len(qs)+24)
	b = append(b, dataset...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = append(b, variant...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	for _, v := range qs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

// cacheEntry is one cached (or in-flight) preparation. ready is closed once
// p/err are set; waiters coalesce on it. cost is set (under the cache mutex)
// when the build completes; until then the entry weighs nothing, so
// in-flight coalescing is never a casualty of weight pressure.
// epoch is the builder's resolve-time invalidation epoch (see prepCache
// epochs): an in-flight entry stamped with an older epoch than a new
// caller's is a build against a network a mutation has since replaced.
type cacheEntry struct {
	key   string
	ready chan struct{}
	p     *mac.Prepared
	err   error
	cost  int64
	epoch uint64
}

// prepCache is a weighted LRU cache of prepared states with single-flight
// admission: concurrent requests for the same key coalesce onto one Prepare
// call. Admission is cost-aware — each entry weighs its prepared-subgraph
// size (mac.Prepared.Cost), and least-recently-used entries are evicted
// while either the entry count exceeds capacity or the total weight exceeds
// maxCost, so one huge kt-core displaces many cheap entries rather than
// exactly one. An evicted in-flight build still completes for its waiters —
// eviction only removes the cache's reference.
type prepCache struct {
	mu       sync.Mutex
	capacity int
	maxCost  int64
	costOf   func(*mac.Prepared) int64 // injectable for weighting tests
	ll       *list.List                // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element
	costUsed int64
	// epochs counts invalidation passes per dataset. A search snapshots the
	// epoch before resolving its network pointer; a build completing under a
	// moved epoch ran against a network some mutation has since replaced and
	// whose invalidation pass could not see the entry, so it must not stay
	// cached (the builder still gets its result — searches pin the version
	// they resolved — it just isn't shared forward).
	epochs map[string]uint64

	hits, misses, coalesced, evictions int64
}

func newPrepCache(capacity int, maxCost int64) *prepCache {
	if capacity < 1 {
		capacity = 1
	}
	if maxCost < 1 {
		maxCost = 1
	}
	return &prepCache{
		capacity: capacity,
		maxCost:  maxCost,
		costOf:   entryCost,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		epochs:   make(map[string]uint64),
	}
}

// entryCost weighs a completed entry: the prepared-subgraph size, or 1 for
// negative entries (cached ErrNoCommunity), which retain almost nothing.
func entryCost(p *mac.Prepared) int64 {
	if p == nil {
		return 1
	}
	return p.Cost()
}

// getOrBuild returns the prepared state for key, building it with build at
// most once per cache residency: the first caller builds, concurrent callers
// wait on the same entry. hit reports whether this call avoided a build
// (found or coalesced). mac.ErrNoCommunity is a deterministic outcome of the
// key and stays cached (a negative entry, so infeasible repeat queries do
// not redo the road-network range query); any other failed build — typically
// a canceled preparation — is removed so later requests retry. cancel aborts
// only this caller's wait, never the shared build.
//
// snapEpoch is the dataset's invalidation epoch the caller snapshotted
// before resolving its network pointer (see epoch). It closes the
// mutation/invalidation race: a search that resolved the pre-mutation
// network, then stalled (e.g. in the admission queue) past a mutation's
// invalidation pass, would otherwise insert a prepared state built from the
// replaced network that the pass could never see — and every later request
// under the same key would hit it. Instead, a completed build whose
// snapshot epoch no longer matches the dataset's is handed to its own
// waiters but dropped from the cache, and an in-flight entry stamped with
// an older epoch than a new caller's is evicted and rebuilt rather than
// coalesced onto.
func (c *prepCache) getOrBuild(key, dataset string, snapEpoch uint64, cancel <-chan struct{}, build func() (*mac.Prepared, error)) (p *mac.Prepared, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		stale := false
		select {
		case <-e.ready:
			// Completed entries survived every invalidation pass since they
			// were built, so they are valid for any caller.
		default:
			// In-flight with an older stamp: the builder resolved its network
			// before an invalidation this caller has already observed.
			stale = e.epoch < snapEpoch
		}
		if !stale {
			c.ll.MoveToFront(el)
			select {
			case <-e.ready:
				c.hits++
			default:
				c.coalesced++
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
				return e.p, true, e.err
			case <-cancel:
				return nil, true, mac.ErrCanceled
			}
		}
		// Evict and rebuild as a miss; the stale build still completes for
		// the waiters it already has.
		c.removeLocked(el)
	}
	c.misses++
	e := &cacheEntry{key: key, ready: make(chan struct{}), epoch: snapEpoch}
	el := c.ll.PushFront(e)
	c.byKey[key] = el
	c.evictOverLocked(el)
	c.mu.Unlock()

	e.p, e.err = build()
	if e.err != nil && !errors.Is(e.err, mac.ErrNoCommunity) {
		close(e.ready)
		c.mu.Lock()
		if cur, ok := c.byKey[key]; ok && cur == el {
			c.removeLocked(el)
		}
		c.mu.Unlock()
		return e.p, false, e.err
	}
	// Successful (or negative) build: account its weight before waiters can
	// observe it, then shed whatever the new weight pushed over the limits.
	// A build that an invalidation pass overtook (the dataset's epoch moved
	// while it ran) is dropped instead: it was prepared from a network a
	// mutation has replaced, and the pass could not have examined it.
	c.mu.Lock()
	if cur, ok := c.byKey[key]; ok && cur == el {
		if c.epochs[dataset] != snapEpoch {
			c.removeLocked(el) // cost still 0: weight accounting unaffected
		} else {
			e.cost = c.costOf(e.p)
			c.costUsed += e.cost
			c.evictOverLocked(el)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.p, false, e.err
}

// epoch returns the dataset's current invalidation epoch. Callers snapshot
// it BEFORE resolving the dataset's network pointer, so an invalidation
// racing the resolve can only make the snapshot conservatively old (a
// spurious drop and rebuild), never dangerously new.
func (c *prepCache) epoch(dataset string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs[dataset]
}

// removeLocked drops an entry and its weight. Caller holds c.mu.
func (c *prepCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
	c.costUsed -= e.cost
}

// evictOverLocked sheds least-recently-used entries while the cache exceeds
// either bound, never evicting keep (the entry being admitted). Caller
// holds c.mu.
func (c *prepCache) evictOverLocked(keep *list.Element) {
	for c.ll.Len() > c.capacity || c.costUsed > c.maxCost {
		back := c.ll.Back()
		if back == nil || back == keep {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// purgeDataset drops every cached prepared state of one dataset — the
// delete half of the dataset lifecycle. The dataset name is the first
// NUL-terminated component of every prepKey, so the match is exact, never a
// prefix collision between e.g. "SF" and "SF+Slashdot". An in-flight build
// loses only the cache's reference: it still completes for its waiters.
func (c *prepCache) purgeDataset(dataset string) int {
	prefix := dataset + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	// The dataset is being unregistered: its epoch record goes with it (a
	// re-create under the name keys its entries by a fresh generation, so
	// epochs never mix across registrations).
	delete(c.epochs, dataset)
	purged := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); len(e.key) > len(prefix) && e.key[:len(prefix)] == prefix {
			c.removeLocked(el)
			purged++
		}
		el = next
	}
	return purged
}

// invalidate drops one dataset's cached prepared states that a mutation may
// have falsified: every in-flight build (it snapshotted the pre-mutation
// network), every negative entry when dropNegatives is set (a structural
// mutation can create a community where none existed; an attribute-only
// batch cannot, so its negatives survive), and every ready entry for which
// pred reports the prepared community could have changed. It returns how
// many entries were dropped. Removal is always safe — the worst case is a
// rebuild on the next request — so pred errs on the side of true.
func (c *prepCache) invalidate(dataset string, pred func(*mac.Prepared) bool, dropNegatives bool) int {
	prefix := dataset + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	// Bump the epoch in the same critical section as the sweep: any build
	// completing after this pass either sees the new epoch (and drops
	// itself) or was already swept here.
	c.epochs[dataset]++
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if len(e.key) > len(prefix) && e.key[:len(prefix)] == prefix {
			remove := true
			select {
			case <-e.ready:
				if e.err != nil || e.p == nil {
					remove = dropNegatives
				} else {
					remove = pred(e.p)
				}
			default:
				// In-flight: built against the pre-mutation network.
			}
			if remove {
				c.removeLocked(el)
				dropped++
			}
		}
		el = next
	}
	return dropped
}

// hotKeys returns up to n of dataset's completed cache residents as the
// request parameters that produced them, most recently used first — the
// working set worth replaying against a freshly synced replica to warm its
// cache. In-flight, failed and negative builds are skipped (replaying them
// proves nothing).
func (c *prepCache) hotKeys(dataset string, n int) []client.HotKey {
	prefix := dataset + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []client.HotKey
	for el := c.ll.Front(); el != nil && len(out) < n; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if len(e.key) <= len(prefix) || e.key[:len(prefix)] != prefix {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.err != nil || e.p == nil {
			continue
		}
		hk := client.HotKey{Q: append([]int32(nil), e.p.Q()...), K: e.p.K(), T: e.p.T(), Algo: client.AlgoGlobal}
		if e.p.Variant() == mac.VariantTruss {
			hk.Algo = client.AlgoTruss
		}
		out = append(out, hk)
	}
	return out
}

// cacheStats is a snapshot of the cache counters for /v1/stats, in the wire
// contract's shape.
type cacheStats = client.CacheStats

func (c *prepCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
		CostUsed:  c.costUsed,
		MaxCost:   c.maxCost,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}
