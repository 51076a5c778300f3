package mac

import "roadsocial/internal/social"

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
// k-truss containing Q among the task's remaining vertices, on the region's
// localized graph. It fails (ok=false) when no such truss exists — the
// Corollary 1 analogue.
func (trussVariant) deleteLeaf(ss *searchSpace, t gsTask, u int32, _ *macScratch) ([]int32, *social.Sub, bool) {
	keep := make([]bool, ss.dag.N())
	t.alive.ForEach(func(i int) bool {
		keep[i] = true
		return true
	})
	keep[u] = false
	comp := ss.hg.MaximalConnectedKTruss(ss.qLocal, ss.query.K, keep)
	if comp == nil {
		return nil, nil, false
	}
	// keep now marks the alive vertices outside the truss, bar u.
	for _, v := range comp {
		keep[v] = false
	}
	keep[u] = true
	var batch []int32
	t.alive.ForEach(func(i int) bool {
		if keep[i] {
			batch = append(batch, int32(i))
		}
		return true
	})
	return batch, nil, true
}

// BruteForceTrussAt is the reference oracle for the truss variant at one
// weight vector: BruteForceAt's deletion process with the maximal connected
// k-truss in place of the k-core. It returns the top-j list likewise.
func BruteForceTrussAt(net *Network, q *Query, w []float64) ([]Community, error) {
	return bruteForce(net, q, w, (*social.Graph).MaximalConnectedKTruss)
}
