package mac

import (
	"roadsocial/internal/conc"
	"roadsocial/internal/geom"
	"roadsocial/internal/social"
)

// LocalOptions tunes the local search framework (Algorithm 3).
type LocalOptions struct {
	// Expand configures candidate generation; the zero value selects the
	// paper's defaults (Eq. 3 with ζ=100, λ=10).
	Expand ExpandOptions
	// BothStrategies, when set, unions the candidates of Eq. 3 and Eq. 4,
	// improving recall at roughly twice the expansion cost.
	BothStrategies bool
	// NoSeeds disables the seeded candidates: by default, local search adds
	// the exact non-contained MAC at R's pivot and corner weight vectors
	// (one cheap deletion simulation each) to the Expand candidates. This
	// extension guarantees the seeded weight vectors are covered even when
	// the answer lies far from Q on the expansion chain — e.g. when it is
	// nearly the whole (k,t)-core.
	NoSeeds bool
}

// LocalSearch runs the local search framework (Algorithm 3): Expand
// generates candidate communities around Q, Verify confirms the partitions
// of R where each candidate is a valid non-contained MAC (LS-NC). With
// q.J > 1, every validated cell is refined with the deletion engine to rank
// the top-j MACs (LS-T), mirroring the generalization of Section VI-B.
//
// The three phases parallelize independently: candidate generators (the two
// expansion strategies and the per-seed deletion simulations) run
// concurrently, candidates are verified concurrently, and validated cells
// are refined concurrently. Output order is canonical, so results are
// identical for every parallelism level.
//
// Local search is sound but — unlike global search — not guaranteed
// complete: candidates form an expansion chain, so a non-contained MAC not
// on the chain is missed (Fig. 12 of the paper reports this recall).
func LocalSearch(net *Network, q *Query, opts LocalOptions) (*Result, error) {
	p, err := Prepare(net, q)
	if err != nil {
		return nil, err
	}
	return p.LocalSearch(q, opts)
}

// localSearchOn runs the local-search framework over an assembled search
// space (one-shot or drawn from a Prepared handle).
func localSearchOn(ss *searchSpace, q *Query, opts LocalOptions) (*Result, error) {
	par := conc.Parallelism(q.Parallelism)
	res := &Result{KTCore: sortedIDs(allLocal(ss.dag.N()), ss.dag.IDs)}

	// Candidate generation: every generator is independent; slots keep the
	// sequential concatenation order.
	gens := []func() [][]int32{
		func() [][]int32 { return ss.expand(opts.Expand) },
	}
	if opts.BothStrategies {
		other := opts.Expand
		if other.Strategy == StrategyDensity {
			other.Strategy = StrategyMinDegree
		} else {
			other.Strategy = StrategyDensity
		}
		gens = append(gens, func() [][]int32 { return ss.expand(other) })
	}
	if !opts.NoSeeds {
		seeds := [][]float64{q.Region.Pivot()}
		seeds = append(seeds, q.Region.Corners()...)
		for _, w := range seeds {
			w := w
			gens = append(gens, func() [][]int32 { return [][]int32{ss.terminalAt(w)} })
		}
	}
	slots := make([][][]int32, len(gens))
	conc.For(par, len(gens), func(_, i int) {
		if ss.cancelled() {
			return
		}
		slots[i] = gens[i]()
	})
	if ss.cancelled() {
		return nil, ErrCanceled
	}
	var candidates [][]int32
	for _, s := range slots {
		candidates = append(candidates, s...)
	}
	ss.stats.Candidates += len(candidates)

	cells := ss.verify(candidates, par)
	if ss.cancelled() {
		return nil, ErrCanceled
	}

	if q.J > 1 {
		// LS-T: rank the top-j MACs inside each validated cell by replaying
		// the deletion process restricted to that (small) cell. One engine
		// per cell, with the worker budget split between concurrent cells
		// and intra-engine parallelism so few-cell workloads still use
		// every core. Engine parallelism never changes output (canonical
		// ordering), only scheduling.
		perCell := make([][]CellResult, len(cells))
		enginePar := max(1, par/max(1, len(cells)))
		conc.For(par, len(cells), func(_, i int) {
			eng := &gsEngine{ss: ss, j: q.J, par: enginePar}
			eng.run(cells[i].Cell)
			perCell[i] = eng.results
		})
		if ss.cancelled() {
			return nil, ErrCanceled
		}
		var refined []CellResult
		for _, rs := range perCell {
			refined = append(refined, rs...)
		}
		cells = refined
	}
	res.Cells = cells
	res.Stats = ss.stats
	res.Stats.Partitions = len(cells)
	return res, nil
}

// terminalAt returns the local vertex set of the non-contained MAC at one
// exact weight vector, by running the deletion process with the k-core
// cascade. It seeds local search with the exact answer at R's pivot and
// corners.
func (ss *searchSpace) terminalAt(w []float64) []int32 {
	n := ss.dag.N()
	sub := social.NewSub(ss.hg, allLocal(n))
	scoreAt := make([]float64, n)
	for i := 0; i < n; i++ {
		scoreAt[i] = ss.dag.Scores[i].At(w)
	}
	for {
		u := int32(-1)
		for v := int32(0); v < int32(n); v++ {
			if !sub.Alive(v) {
				continue
			}
			if u < 0 || scoreAt[v] < scoreAt[u]-geom.Eps {
				u = v
			}
		}
		if u < 0 || containsLocal(ss.qLocal, u) {
			break
		}
		if _, ok := sub.TryDeleteCascade(u, ss.query.K, ss.qLocal); !ok {
			break
		}
	}
	return sub.Vertices()
}

// CommunityScore evaluates S(H) = min over members of the weighted attribute
// sum at reduced weight vector w (Eq. 2).
func CommunityScore(net *Network, h Community, w []float64) float64 {
	min := 0.0
	for i, v := range h {
		s := geom.ScoreOf(net.Social.Attrs(int(v))).At(w)
		if i == 0 || s < min {
			min = s
		}
	}
	return min
}
