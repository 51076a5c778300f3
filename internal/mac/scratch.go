package mac

import (
	"sync"

	"roadsocial/internal/bitset"
	"roadsocial/internal/geom"
	"roadsocial/internal/social"
)

// macScratch is the per-worker scratch arena of the parallel query engines.
// Every buffer that the sequential code used to allocate per cell, per
// candidate, or per cascade lives here instead and is reused across the
// items one worker processes. Workers never share a scratch, so no field
// needs synchronization; Stats are accumulated locally and merged into the
// searchSpace once the parallel phase drains.
type macScratch struct {
	stats Stats

	// cascadeRemoved buffers (verify path).
	removed  *bitset.Set
	deg      []int32
	stack    []int32
	resolved []int32

	// verifyOne buffers.
	ge, gc  *bitset.Set
	candSub *social.Sub
	trial   *social.Sub

	// gsEngine freelists: released task state is recycled instead of cloned
	// fresh ("pool bitset.Set clones").
	freeSets []*bitset.Set
	freeSubs []*social.Sub

	// gsEngine emit buffer (canonically ordered after the merge).
	emits []orderedCell
}

// newScratches returns one scratch per worker.
func newScratches(par int) []*macScratch {
	if par < 1 {
		par = 1
	}
	out := make([]*macScratch, par)
	for i := range out {
		out[i] = &macScratch{}
	}
	return out
}

// mergeStats folds every worker's counters into ss.stats. It is called from
// single-threaded code between parallel phases; ss.statsMu also protects the
// merge when refinement engines finish concurrently.
func (ss *searchSpace) mergeStats(scratches []*macScratch) {
	ss.statsMu.Lock()
	defer ss.statsMu.Unlock()
	for _, sc := range scratches {
		s := &sc.stats
		ss.stats.Partitions += s.Partitions
		ss.stats.Hyperplanes += s.Hyperplanes
		ss.stats.CellsExplored += s.CellsExplored
		ss.stats.Deletions += s.Deletions
		ss.stats.Candidates += s.Candidates
		ss.stats.Promising += s.Promising
		ss.stats.CascadeSims += s.CascadeSims
		*s = Stats{}
	}
}

// getSet returns a bitset copy of src drawn from the worker freelist.
func (sc *macScratch) getSet(src *bitset.Set) *bitset.Set {
	if n := len(sc.freeSets); n > 0 {
		s := sc.freeSets[n-1]
		sc.freeSets = sc.freeSets[:n-1]
		s.CopyFrom(src)
		return s
	}
	return src.Clone()
}

// putSet recycles a bitset whose task has been fully processed.
func (sc *macScratch) putSet(s *bitset.Set) {
	if s != nil {
		sc.freeSets = append(sc.freeSets, s)
	}
}

// getSub returns a Sub copy of src drawn from the worker freelist.
func (sc *macScratch) getSub(src *social.Sub) *social.Sub {
	if n := len(sc.freeSubs); n > 0 {
		s := sc.freeSubs[n-1]
		sc.freeSubs = sc.freeSubs[:n-1]
		s.CopyFrom(src)
		return s
	}
	return src.Clone()
}

// putSub recycles a Sub whose task has been fully processed.
func (sc *macScratch) putSub(s *social.Sub) {
	if s != nil {
		sc.freeSubs = append(sc.freeSubs, s)
	}
}

// orderedCell is one emitted partition result tagged with its position in
// the task tree: path[i] is the arrangement-leaf index taken at depth i.
// Sibling events get distinct indices and emits only happen at tree leaves,
// so paths are prefix-free and their lexicographic order is a canonical
// total order — identical for every worker schedule, which is what makes
// parallel output byte-identical to sequential output.
type orderedCell struct {
	path []int32
	cr   CellResult
}

func pathLess(a, b []int32) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// appendPath returns parent + [event] in a fresh slice (sibling paths must
// not share backing arrays across workers).
func appendPath(parent []int32, event int32) []int32 {
	p := make([]int32, len(parent)+1)
	copy(p, parent)
	p[len(parent)] = event
	return p
}

// hpMemo is the concurrency-safe memo of comparison hyperplanes keyed by
// leaf pair ("each half-space is computed only once", Section V-B). The
// sequential path (locked == false) skips the mutex entirely.
type hpMemo struct {
	mu     sync.RWMutex
	locked bool
	m      map[uint64]*geom.Halfspace
}

// newHPMemo pre-sizes the memo for pairs entries (0 leaves the map unsized).
// The top-level global search passes the full leaf-pair bound so the hot
// path never rehashes; the many small LS-T refinement engines pass 0, since
// each inserts only a handful of hyperplanes.
func newHPMemo(pairs int, locked bool) *hpMemo {
	const maxPresize = 1 << 16
	if pairs > maxPresize {
		pairs = maxPresize
	}
	return &hpMemo{locked: locked, m: make(map[uint64]*geom.Halfspace, pairs)}
}

// lookup returns the memoized entry for key.
func (h *hpMemo) lookup(key uint64) (*geom.Halfspace, bool) {
	if !h.locked {
		hp, ok := h.m[key]
		return hp, ok
	}
	h.mu.RLock()
	hp, ok := h.m[key]
	h.mu.RUnlock()
	return hp, ok
}

// store records the entry for key. Racing stores write the same value (the
// hyperplane is a pure function of the pair), so last-write-wins is safe.
func (h *hpMemo) store(key uint64, hp *geom.Halfspace) {
	if !h.locked {
		h.m[key] = hp
		return
	}
	h.mu.Lock()
	h.m[key] = hp
	h.mu.Unlock()
}
