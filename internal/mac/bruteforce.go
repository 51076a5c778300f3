package mac

import (
	"slices"

	"roadsocial/internal/geom"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// BruteForceAt computes the top-j MAC list for one fixed reduced weight
// vector w by direct simulation of the deletion process justified by Lemmas
// 4-6: starting from H_k^t, repeatedly delete the vertex with the smallest
// exact score at w and recompute the maximal connected k-core over the
// vertices that remain, until Corollary 1 stops the process. It is the
// reference oracle the search algorithms are tested against; its cost is
// one k-core decomposition of H_k^t's induced subgraph per deletion.
func BruteForceAt(net *Network, q *Query, w []float64) ([]Community, error) {
	return bruteForce(net, q, w, (*social.Graph).MaximalConnectedKCore)
}

// bruteForce is the oracle of both variants; maximal returns the variant's
// maximal connected cohesive subgraph containing q within a vertex mask.
// Past the range query it shares nothing with the engines it checks: no
// Prepared, r-dominance DAG, localized graph or cascade state; it builds its
// own induced subgraph with a social.Builder.
func bruteForce(net *Network, q *Query, w []float64, maximal func(g *social.Graph, q []int32, k int, allowed []bool) []int32) ([]Community, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(net); err != nil {
		return nil, err
	}
	gs := net.Social
	// Lemma 1's range step.
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
	mask := make([]bool, gs.N())
	for v := range mask {
		mask[v] = dq[v] <= q.T
	}
	first := maximal(gs, q.Q, q.K, mask)
	if first == nil {
		return nil, ErrNoCommunity
	}
	// Every later community lies inside the first, so the deletion loop runs
	// on the first members' induced subgraph. Local ids keep user-id order,
	// which keeps the tie rule.
	ids := slices.Clone(first)
	slices.Sort(ids)
	b := social.NewBuilder(len(ids), 0)
	for i, v := range ids {
		for _, x := range gs.Neighbors(int(v)) {
			if j, ok := slices.BinarySearch(ids, x); ok && i < j {
				b.AddEdge(i, j)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	qLocal := make([]int32, len(q.Q))
	for i, v := range q.Q {
		j, _ := slices.BinarySearch(ids, v)
		qLocal[i] = int32(j)
	}
	score := make([]float64, len(ids))
	current := make([]int32, len(ids))
	for i, v := range ids {
		score[i] = geom.ScoreOf(gs.Attrs(int(v))).At(w)
		current[i] = int32(i)
	}
	mask = make([]bool, len(ids))
	var batches [][]int32
	for {
		// Smallest-score member, ties by the lower user id.
		u := current[0]
		for _, v := range current[1:] {
			if score[v] < score[u] || (score[v] == score[u] && v < u) {
				u = v
			}
		}
		if slices.Contains(qLocal, u) {
			break
		}
		clear(mask)
		for _, v := range current {
			mask[v] = v != u
		}
		next := maximal(g, qLocal, q.K, mask)
		if next == nil {
			break
		}
		// mask now marks the members next dropped, bar u.
		for _, v := range next {
			mask[v] = false
		}
		batch := []int32{u}
		for _, v := range current {
			if mask[v] {
				batch = append(batch, v)
			}
		}
		batches = append(batches, batch)
		current = next
	}
	// Rank 1 is the non-contained MAC; each further rank restores the
	// vertices one earlier deletion removed.
	j := max(1, q.J)
	ranked := make([]Community, 0, j)
	members := slices.Clone(current)
	for r := 0; r < j && r <= len(batches); r++ {
		if r > 0 {
			members = append(members, batches[len(batches)-r]...)
		}
		slices.Sort(members)
		c := make(Community, len(members))
		for i, v := range members {
			c[i] = ids[v]
		}
		ranked = append(ranked, c)
	}
	return ranked, nil
}

// ResultAt returns the CellResult whose cell contains the weight vector w,
// or nil if no output cell covers it (possible for local search).
func (r *Result) ResultAt(w []float64) *CellResult {
	for i := range r.Cells {
		if cellContains(r.Cells[i].Cell, w) {
			return &r.Cells[i]
		}
	}
	return nil
}

func cellContains(c *geom.Cell, w []float64) bool {
	if !c.Region.Contains(w) {
		return false
	}
	for _, h := range c.Cuts {
		if !h.Contains(w) {
			return false
		}
	}
	return true
}
