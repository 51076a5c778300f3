package mac

import (
	"container/heap"

	"roadsocial/internal/bitset"
)

// ExpandStrategy selects the candidate-generation priority function of
// Section VI-A.
type ExpandStrategy int

const (
	// StrategyDensity uses Eq. 3: f(v) = λ·f2(v) + f3(v), where f2 is v's
	// degree into the current community (fastest average-degree growth) and
	// f3 = ζ − layer(v) favors vertices high in the r-dominance graph.
	StrategyDensity ExpandStrategy = iota
	// StrategyMinDegree uses Eq. 4: f(v) = ζ·f1(v) + f3(v), where f1 ∈ {0,1}
	// is the immediate minimum-degree improvement of adding v.
	StrategyMinDegree
)

// ExpandOptions tunes Algorithm 4.
type ExpandOptions struct {
	Strategy ExpandStrategy
	// Zeta is the constant ζ (maximum priority in Gd); 0 selects 100, the
	// value used in the paper's experiments.
	Zeta int
	// Lambda is the trade-off λ of Eq. 3; 0 selects 10 (paper default).
	Lambda int
	// MaxCandidates caps |C|; 0 selects 64.
	MaxCandidates int
}

func (o *ExpandOptions) defaults() {
	if o.Zeta == 0 {
		o.Zeta = 100
	}
	if o.Lambda == 0 {
		o.Lambda = 10
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 64
	}
}

// expandItem is a frontier entry with lazy priority updates.
type expandItem struct {
	v    int32
	prio int
}
type expandHeap []expandItem

func (h expandHeap) Len() int           { return len(h) }
func (h expandHeap) Less(i, j int) bool { return h[i].prio > h[j].prio }
func (h expandHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expandHeap) Push(x any)        { *h = append(*h, x.(expandItem)) }
func (h *expandHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// expandState maintains the growing community with incremental minimum
// degree tracking, so priorities and the k-core test are cheap. degIn is
// maintained for every vertex — for members it is their degree inside the
// community; for frontier vertices it is f2(v), the degree they would have
// if added.
type expandState struct {
	ss     *searchSpace
	in     *bitset.Set
	degIn  []int32
	size   int
	below  int // members with degIn < k
	k      int
	minDeg int32
	minCnt int // number of members attaining minDeg
	dirty  bool
	// parent is a union-find forest over the members and comps counts its
	// trees, the community's connected components: the community only
	// grows, so add merges components and nothing ever splits one.
	parent []int32
	comps  int
}

func newExpandState(ss *searchSpace) *expandState {
	return &expandState{
		ss:     ss,
		in:     bitset.New(ss.dag.N()),
		degIn:  make([]int32, ss.dag.N()),
		k:      ss.query.K,
		parent: make([]int32, ss.dag.N()),
	}
}

func (st *expandState) add(v int32) {
	st.in.Set(int(v))
	st.size++
	st.parent[v] = v
	st.comps++
	if int(st.degIn[v]) < st.k {
		st.below++
	}
	for _, w := range st.ss.hg.Neighbors(int(v)) {
		if st.in.Test(int(w)) {
			if int(st.degIn[w]) == st.k-1 {
				st.below--
			}
			if rv, rw := st.find(v), st.find(w); rv != rw {
				st.parent[rw] = rv
				st.comps--
			}
		}
		st.degIn[w]++
	}
	st.dirty = true
}

// find returns the root of v's tree, halving the path it walks.
func (st *expandState) find(v int32) int32 {
	for st.parent[v] != v {
		st.parent[v] = st.parent[st.parent[v]]
		v = st.parent[v]
	}
	return v
}

func (st *expandState) refreshMin() {
	if !st.dirty {
		return
	}
	st.dirty = false
	st.minDeg = 1 << 30
	st.minCnt = 0
	st.in.ForEach(func(i int) bool {
		switch {
		case st.degIn[i] < st.minDeg:
			st.minDeg = st.degIn[i]
			st.minCnt = 1
		case st.degIn[i] == st.minDeg:
			st.minCnt++
		}
		return true
	})
}

// f1 reports whether adding v would raise the community's minimum degree:
// true iff v's own degree exceeds δ(H) and v is adjacent to every current
// minimum-degree member.
func (st *expandState) f1(v int32) int {
	st.refreshMin()
	if int64(st.degIn[v]) <= int64(st.minDeg) {
		return 0
	}
	covered := 0
	for _, w := range st.ss.hg.Neighbors(int(v)) {
		if st.in.Test(int(w)) && st.degIn[w] == st.minDeg {
			covered++
		}
	}
	if covered == st.minCnt {
		return 1
	}
	return 0
}

// expand implements Algorithm 4: best-first growth from Q over H_k^t guided
// by the priority f(v), emitting a candidate snapshot whenever the current
// community is a connected k-core containing Q. Candidates form a nested
// chain C_1 ⊂ C_2 ⊂ … ⊂ H_k^t (always included last, per Lemma 4).
func (ss *searchSpace) expand(opts ExpandOptions) [][]int32 {
	opts.defaults()
	n := ss.dag.N()
	st := newExpandState(ss)
	queued := make([]bool, n)

	priority := func(v int32) int {
		f3 := opts.Zeta - ss.dag.Layer(v)
		if opts.Strategy == StrategyMinDegree {
			return opts.Zeta*st.f1(v) + f3
		}
		return opts.Lambda*int(st.degIn[v]) + f3
	}

	var h expandHeap
	pushFrontier := func(v int32) {
		for _, w := range ss.hg.Neighbors(int(v)) {
			if !st.in.Test(int(w)) {
				heap.Push(&h, expandItem{v: w, prio: priority(w)})
				queued[w] = true
			}
		}
	}
	for _, qv := range ss.qLocal {
		if !st.in.Test(int(qv)) {
			st.add(qv)
		}
	}
	for _, qv := range ss.qLocal {
		pushFrontier(qv)
	}

	var candidates [][]int32
	snapshot := func() {
		vs := make([]int32, 0, st.size)
		st.in.ForEach(func(i int) bool { vs = append(vs, int32(i)); return true })
		candidates = append(candidates, vs)
	}
	if st.below == 0 && st.connected() {
		snapshot()
	}
	for h.Len() > 0 && len(candidates) < opts.MaxCandidates && st.size < n {
		it := heap.Pop(&h).(expandItem)
		if st.in.Test(int(it.v)) {
			continue
		}
		if cur := priority(it.v); cur != it.prio {
			heap.Push(&h, expandItem{v: it.v, prio: cur})
			continue
		}
		st.add(it.v)
		pushFrontier(it.v)
		// A new candidate arises exactly when the community regains the
		// connected-k-core property (line 6 of Algorithm 4).
		if st.below == 0 && st.connected() {
			snapshot()
		}
	}
	// Ensure H_k^t itself is always a candidate (Lemma 4: it is an MAC).
	if len(candidates) == 0 || len(candidates[len(candidates)-1]) < n {
		candidates = append(candidates, allLocal(n))
	}
	return candidates
}

// connected reports whether the current community forms a connected
// subgraph of the localized H_k^t graph.
func (st *expandState) connected() bool { return st.comps == 1 }
