package mac

import (
	"sort"

	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// KTCore computes the vertex set of the maximal (k,t)-core H_k^t for query
// vertices q (Definition 7): the maximal connected k-core containing q after
// filtering out every user whose query distance in the road network exceeds
// t (Lemma 1), restricted to the component of q (Lemma 2). It returns
// ErrNoCommunity when the core is empty.
//
// Following Section III, the coreness upper bound ⌊(1+√(9+8(m'−n')))/2⌋ of
// the filtered subgraph is checked before running the decomposition.
func KTCore(net *Network, q []int32, k int, t float64) ([]int32, error) {
	return ktCore(net, q, k, t, 0, nil)
}

// KTCoreWithParallelism is KTCore with an explicit parallelism knob for the
// built-in range-filter oracle (<= 0 selects GOMAXPROCS, 1 forces the
// sequential baseline — used by measurement harnesses).
func KTCoreWithParallelism(net *Network, q []int32, k int, t float64, parallelism int) ([]int32, error) {
	return ktCore(net, q, k, t, parallelism, nil)
}

// ktCore is KTCore with the query's parallelism and cancellation knobs
// threaded into the built-in range-filter oracle (0 = GOMAXPROCS).
func ktCore(net *Network, q []int32, k int, t float64, parallelism int, cancel <-chan struct{}) ([]int32, error) {
	gs := net.Social
	allowed, err := inRange(net, q, t, parallelism, cancel)
	if err != nil {
		return nil, err
	}
	nAllowed, mAllowed := 0, 0
	for v := 0; v < gs.N(); v++ {
		if !allowed[v] {
			continue
		}
		nAllowed++
		for _, w := range gs.Neighbors(v) {
			if allowed[w] && int32(v) < w {
				mAllowed++
			}
		}
	}
	// A-priori coreness bound on the filtered subgraph.
	if k > social.CorenessUpperBound(nAllowed, mAllowed) {
		return nil, ErrNoCommunity
	}
	comp := gs.MaximalConnectedKCore(q, k, allowed)
	if comp == nil {
		return nil, ErrNoCommunity
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	return comp, nil
}

// inRange is the range query of Lemma 1, shared by every variant's seed: it
// marks the users whose query distance to q is at most t. A query vertex out
// of range leaves no community, so it returns ErrNoCommunity.
func inRange(net *Network, q []int32, t float64, parallelism int, cancel <-chan struct{}) ([]bool, error) {
	queryLocs := make([]road.Location, len(q))
	for i, v := range q {
		queryLocs[i] = net.Locs[v]
	}
	dq, err := net.oracle(parallelism, cancel).QueryDistances(queryLocs, net.Locs, t)
	if err != nil {
		return nil, oracleErr(err)
	}
	// Checkpoint for oracles that ignore Cancel (e.g. GTree): stop before
	// the peel instead of computing a result nobody wants.
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	allowed := make([]bool, net.Social.N())
	for v := range allowed {
		allowed[v] = dq[v] <= t
	}
	for _, v := range q {
		if !allowed[v] {
			return nil, ErrNoCommunity
		}
	}
	return allowed, nil
}
