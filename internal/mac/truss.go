package mac

import (
	"sort"

	"roadsocial/internal/bitset"
	"roadsocial/internal/geom"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// GlobalSearchTruss is the k-truss variant of the MAC search, implementing
// the paper's remark (Section II-B) that the techniques apply to other
// structural-cohesiveness criteria. Communities are connected k-trusses
// containing Q (every edge in at least k-2 triangles) with query distance
// at most t; everything else — r-dominance, the arrangement of R, the
// smallest-score deletion order, top-j backtracking — is unchanged.
//
// It is sugar for the truss engine: PrepareTruss followed by one global
// search. Long-lived callers hold the Prepared handle instead and amortize
// the range query and truss decomposition across searches.
//
// It runs the core engine's Algorithm 1 DFS (gsEngine) with the truss
// deletion step, so independent search-tree branches run on
// Query.Parallelism workers with canonically ordered output, and closing
// Query.Cancel abandons the search at the next task boundary with
// ErrCanceled.
func GlobalSearchTruss(net *Network, q *Query) (*Result, error) {
	p, err := PrepareTruss(net, q)
	if err != nil {
		return nil, err
	}
	return p.Search(q, SearchOptions{Mode: ModeGlobal})
}

func (trussVariant) rootSub(*searchSpace) *social.Sub { return nil }

// deleteLeaf removes local vertex u and recomputes the maximal connected
// k-truss containing Q among the task's remaining vertices. It fails
// (ok=false) when no such truss exists — the Corollary 1 analogue.
func (trussVariant) deleteLeaf(ss *searchSpace, t gsTask, u int32, _ *macScratch) ([]int32, *social.Sub, bool) {
	gs := ss.net.Social
	allowed := make([]bool, gs.N())
	t.alive.ForEach(func(i int) bool {
		if int32(i) != u {
			allowed[ss.dag.IDs[i]] = true
		}
		return true
	})
	comp := gs.MaximalConnectedKTruss(ss.query.Q, ss.query.K, allowed)
	if comp == nil {
		return nil, nil, false
	}
	alive2 := bitset.New(ss.dag.N())
	for _, v := range comp {
		alive2.Set(int(ss.dag.Local[v]))
	}
	var batch []int32
	t.alive.ForEach(func(i int) bool {
		if !alive2.Test(i) {
			batch = append(batch, int32(i))
		}
		return true
	})
	return batch, nil, true
}

// BruteForceTrussAt is the reference oracle for the truss variant at one
// weight vector.
func BruteForceTrussAt(net *Network, q *Query, w []float64) (Community, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(net); err != nil {
		return nil, err
	}
	gs := net.Social
	queryLocs := make([]road.Location, len(q.Q))
	for i, v := range q.Q {
		queryLocs[i] = net.Locs[v]
	}
	dq, err := net.oracle(q.Parallelism, q.Cancel).QueryDistances(queryLocs, net.Locs, q.T)
	if err != nil {
		return nil, oracleErr(err)
	}
	if queryCancelled(q) {
		return nil, ErrCanceled
	}
	allowed := make([]bool, gs.N())
	for v := 0; v < gs.N(); v++ {
		allowed[v] = dq[v] <= q.T
	}
	current := gs.MaximalConnectedKTruss(q.Q, q.K, allowed)
	if current == nil {
		return nil, ErrNoCommunity
	}
	inQ := make(map[int32]bool)
	for _, v := range q.Q {
		inQ[v] = true
	}
	for {
		// Smallest-score member at w.
		u := int32(-1)
		var us float64
		for _, v := range current {
			s := geom.ScoreOf(gs.Attrs(int(v))).At(w)
			if u < 0 || s < us {
				u, us = v, s
			}
		}
		if inQ[u] {
			break
		}
		mask := make([]bool, gs.N())
		for _, v := range current {
			if v != u {
				mask[v] = true
			}
		}
		next := gs.MaximalConnectedKTruss(q.Q, q.K, mask)
		if next == nil {
			break
		}
		current = next
	}
	out := append(Community(nil), current...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
