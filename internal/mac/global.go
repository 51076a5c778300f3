package mac

import (
	"math"
	"sort"

	"roadsocial/internal/bitset"
	"roadsocial/internal/conc"
	"roadsocial/internal/geom"
	"roadsocial/internal/social"
)

// GlobalSearch runs the DFS-based algorithm (Algorithm 1). With q.J <= 1 it
// solves Problem 2, returning the non-contained MAC per partition of R
// (GS-NC); with q.J = j > 1 it additionally backtracks the deletion heap to
// report the top-j MACs per partition (GS-T).
//
// Independent branches of the search tree are processed by q.Parallelism
// workers (<= 0 selects GOMAXPROCS); output is canonically ordered, so the
// result is identical for every parallelism level.
func GlobalSearch(net *Network, q *Query) (*Result, error) {
	p, err := Prepare(net, q)
	if err != nil {
		return nil, err
	}
	return p.GlobalSearch(q)
}

// globalSearchOn runs the global-search engine over an assembled search
// space (one-shot or drawn from a Prepared handle).
func globalSearchOn(ss *searchSpace, q *Query) (*Result, error) {
	res := &Result{KTCore: sortedIDs(allLocal(ss.dag.N()), ss.dag.IDs)}
	eng := &gsEngine{ss: ss, j: max(1, q.J), par: conc.Parallelism(q.Parallelism), presizeHP: true}
	eng.run(geom.NewCell(q.Region))
	if ss.cancelled() {
		return nil, ErrCanceled
	}
	res.Cells = eng.results
	res.Stats = ss.stats
	res.Stats.Partitions = len(eng.results)
	return res, nil
}

func allLocal(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// gsEngine is the work-queue driver shared by GS-T/GS-NC and reused by LS-T
// to rank MACs inside a validated cell. Independent gsTasks (disjoint
// sub-cells of R) are distributed over par workers; each worker carries its
// own scratch arena and Stats, merged when the task tree drains.
type gsEngine struct {
	ss      *searchSpace
	j       int
	par     int
	results []CellResult
	// hp memoizes, per leaf pair, the comparison hyperplane — or nil when
	// the supporting plane does not cross the root cell at all, in which
	// case the pair never needs insertion anywhere below the root ("each
	// half-space is computed only once", Section V-B).
	hp *hpMemo
	// presizeHP makes run pre-size the memo from the initial bottom-layer
	// pair count (the pairs actually compared). The many small LS-T
	// refinement engines leave it false and let their maps grow on demand.
	presizeHP bool
	root      *geom.Cell
}

// pairHalfspace returns the hyperplane separating leaves a and b, or nil
// when it does not cross the engine's root cell. Racing recomputations are
// harmless: the hyperplane is a pure function of the pair.
func (e *gsEngine) pairHalfspace(a, b int32) *geom.Halfspace {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(uint32(b))
	if hp, ok := e.hp.lookup(key); ok {
		return hp
	}
	hp := e.ss.dag.Scores[a].GEHalfspace(e.ss.dag.Scores[b])
	var entry *geom.Halfspace
	if e.root.Classify(hp) == geom.SideSplit {
		entry = &hp
	}
	e.hp.store(key, entry)
	return entry
}

// gsTask mirrors one entry of queue U in Algorithm 1: the current community
// H as the alive set of the shrunken r-dominance graph Gd' (plus the
// deletion step's cascade state over H, if it keeps one), the partition ρ,
// the deletion history I', and the task's path in the search tree (for
// canonical output ordering).
type gsTask struct {
	sub     *social.Sub
	alive   *bitset.Set
	cell    *geom.Cell
	batches [][]int32
	path    []int32
}

// run executes the search over the given root cell starting from H_k^t.
func (e *gsEngine) run(root *geom.Cell) {
	e.root = root
	// Force the root cell's lazy witness/feasibility evaluation now: workers
	// classify hyperplanes against the root concurrently, and evaluated
	// cells are read-only.
	root.Witness()
	n := e.ss.dag.N()
	alive := bitset.New(n)
	for i := 0; i < n; i++ {
		alive.Set(i)
	}
	if e.hp == nil {
		pairs := 0
		if e.presizeHP {
			// Only bottom-layer (leaf) pairs are ever memoized; the initial
			// leaf count bounds the common case. Deeper tasks expose new
			// leaves, so the map can still grow — amortized, off the cap.
			l := len(e.ss.dag.Leaves(alive))
			pairs = l * (l + 1) / 2
		}
		e.hp = newHPMemo(pairs, e.par > 1)
	}
	start := gsTask{sub: e.ss.eng.rootSub(e.ss), alive: alive, cell: root}
	scratches := newScratches(e.par)
	conc.Tree(e.par, []gsTask{start}, func(worker int, t gsTask) []gsTask {
		return e.step(t, scratches[worker])
	})
	// Merge per-worker emits and order them canonically by task-tree path,
	// so output is byte-identical across parallelism levels and schedules.
	total := 0
	for _, sc := range scratches {
		total += len(sc.emits)
	}
	emits := make([]orderedCell, 0, total)
	for _, sc := range scratches {
		emits = append(emits, sc.emits...)
	}
	sort.Slice(emits, func(i, j int) bool { return pathLess(emits[i].path, emits[j].path) })
	e.results = make([]CellResult, len(emits))
	for i, oc := range emits {
		e.results[i] = oc.cr
	}
	e.ss.mergeStats(scratches)
}

// step processes one task: it inserts the hyperplanes among the current
// leaf vertices of Gd' into a local arrangement over the task's cell
// (Section V-B), then for each sub-partition finds the smallest-score leaf,
// applies the DFS deletion (Corollary 1 deciding termination), and either
// emits the partition's result or pushes a deeper task. The task's sub and
// alive set are recycled into the worker freelists on return: children
// carry their own copies, and emits snapshot the vertex lists.
func (e *gsEngine) step(t gsTask, sc *macScratch) []gsTask {
	if e.ss.cancelled() {
		// Abandoned search: drop the task without spawning children so the
		// pool drains at the next boundary instead of finishing the DFS.
		return nil
	}
	dag := e.ss.dag
	leaves := dag.Leaves(t.alive)
	if len(leaves) == 0 {
		// Cannot happen for non-empty communities; guard anyway.
		e.emit(t, sc)
		return nil
	}
	tree := geom.NewPartitionTree(t.cell)
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			hp := e.pairHalfspace(leaves[i], leaves[j])
			if hp == nil {
				continue // plane does not cross R: order fixed everywhere
			}
			if tree.Insert(*hp) {
				sc.stats.Hyperplanes++
			}
		}
	}
	var out []gsTask
	for ci, cell := range tree.Leaves() {
		// Canceled searches return ErrCanceled, so dropping mid-task is
		// invisible to callers; it just bounds cancellation latency by one
		// cell instead of one task.
		if e.ss.cancelled() {
			break
		}
		sc.stats.CellsExplored++
		w := cell.Witness()
		if w == nil {
			continue
		}
		u := e.smallestLeaf(leaves, w)
		if containsLocal(e.ss.qLocal, u) {
			// Corollary 1 condition (1): the smallest-score vertex is a
			// query vertex; H is the non-contained MAC of this partition.
			e.emit(gsTask{alive: t.alive, cell: cell, batches: t.batches, path: appendPath(t.path, int32(ci))}, sc)
			continue
		}
		batch, sub2, ok := e.ss.eng.deleteLeaf(e.ss, t, u, sc)
		if !ok {
			// Corollary 1 condition (2): deletion destroys the cohesive
			// subgraph containing Q.
			e.emit(gsTask{alive: t.alive, cell: cell, batches: t.batches, path: appendPath(t.path, int32(ci))}, sc)
			continue
		}
		sc.stats.Deletions += len(batch)
		alive2 := sc.getSet(t.alive)
		for _, v := range batch {
			alive2.Clear(int(v))
		}
		batches2 := make([][]int32, len(t.batches)+1)
		copy(batches2, t.batches)
		batches2[len(t.batches)] = batch
		out = append(out, gsTask{sub: sub2, alive: alive2, cell: cell, batches: batches2, path: appendPath(t.path, int32(ci))})
	}
	sc.putSub(t.sub)
	sc.putSet(t.alive)
	return out
}

// smallestLeaf returns the leaf with the minimum score at witness w,
// breaking ties by local index for determinism.
func (e *gsEngine) smallestLeaf(leaves []int32, w []float64) int32 {
	best := leaves[0]
	bestV := e.ss.dag.Scores[best].At(w)
	for _, l := range leaves[1:] {
		v := e.ss.dag.Scores[l].At(w)
		if v < bestV-geom.Eps || (math.Abs(v-bestV) <= geom.Eps && l < best) {
			best, bestV = l, v
		}
	}
	return best
}

// emit records the partition's result: the non-contained MAC is the current
// community; ranks 2..j are obtained by backtracking the deletion batches
// (each batch restores the vertices removed in one smallest-vertex step).
func (e *gsEngine) emit(t gsTask, sc *macScratch) {
	ranked := make([]Community, 0, e.j)
	current := make([]int32, 0, t.alive.Count()) // local ids
	t.alive.ForEach(func(i int) bool { current = append(current, int32(i)); return true })
	ranked = append(ranked, sortedIDs(current, e.ss.dag.IDs))
	for r := 1; r < e.j && len(t.batches)-r >= 0; r++ {
		idx := len(t.batches) - r
		if idx < 0 {
			break
		}
		current = append(current, t.batches[idx]...)
		ranked = append(ranked, sortedIDs(current, e.ss.dag.IDs))
	}
	sc.emits = append(sc.emits, orderedCell{path: t.path, cr: CellResult{Cell: t.cell, Ranked: ranked}})
}

func containsLocal(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
