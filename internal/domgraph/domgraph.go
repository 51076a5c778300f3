// Package domgraph builds and queries the r-dominance graph Gd of Section
// IV: a DAG over the vertices of the maximal (k,t)-core whose arcs record
// direct (non-transitive) r-dominance with respect to the preference region
// R. Construction follows the paper's adapted BBS: the attribute vectors are
// organized in an R-tree; a max-heap keyed by the score at R's pivot vector
// pops vertices in non-increasing pivot score, which is a topological order
// of the dominance relation (a strict r-dominator always has a strictly
// higher pivot score because scores are affine and the pivot is the mean of
// R's corners); each popped vertex finds its dominators with a pruned R-tree
// descent (vertex-to-MBB tests against the box's upper corner).
package domgraph

import (
	"container/heap"
	"sort"

	"roadsocial/internal/bitset"
	"roadsocial/internal/geom"
	"roadsocial/internal/rtree"
)

// DAG is the r-dominance graph. Vertices use dense local indices; IDs maps
// back to the caller's (social-graph) vertex ids.
type DAG struct {
	// IDs[i] is the external id of local vertex i, in pivot-score pop order
	// (a topological order: dominators precede dominatees).
	IDs []int32
	// Local maps external ids to local indices.
	Local map[int32]int32
	// Scores holds the affine score function of each local vertex.
	Scores []geom.Score
	// Region is the preference region the dominance is relative to.
	Region *geom.Region

	parents  [][]int32 // direct dominators
	children [][]int32 // direct dominatees
	domCount []int32   // total number of dominators (r-dominance count)
	layer    []int32   // 0 = top (no dominators); bottom layer = leaves
	desc     []*bitset.Set
	anc      []*bitset.Set
}

// Build constructs Gd for the given external vertex ids and their d-dim
// attribute vectors, with respect to region. fanout <= 0 uses the R-tree
// default.
func Build(region *geom.Region, ids []int32, vecs [][]float64, fanout int) *DAG {
	n := len(ids)
	d := &DAG{
		IDs:      make([]int32, 0, n),
		Local:    make(map[int32]int32, n),
		Scores:   make([]geom.Score, 0, n),
		Region:   region,
		parents:  make([][]int32, n),
		children: make([][]int32, n),
		domCount: make([]int32, n),
		layer:    make([]int32, n),
	}
	if n == 0 {
		return d
	}
	dim := len(vecs[0])
	entries := make([]rtree.Entry, n)
	for i := range ids {
		entries[i] = rtree.Entry{ID: int32(i), Point: vecs[i]}
	}
	scores := make([]geom.Score, n) // indexed by original position
	pivot := region.Pivot()
	pivotScore := make([]float64, n)
	for i, v := range vecs {
		scores[i] = geom.ScoreOf(v)
		pivotScore[i] = scores[i].At(pivot)
	}
	tree := rtree.Build(entries, dim, fanout)

	// BBS pop phase: max-heap over R-tree nodes (keyed by the pivot score of
	// the MBB upper corner, an upper bound for all contents) and entries.
	popped := d.popOrder(tree, scores, pivotScore)

	// Local relabeling in pop order.
	for _, orig := range popped {
		li := int32(len(d.IDs))
		d.Local[ids[orig]] = li
		d.IDs = append(d.IDs, ids[orig])
		d.Scores = append(d.Scores, scores[orig])
	}
	// Dominator discovery per vertex, in pop order, via pruned R-tree
	// descent. poppedRank lets the descent skip not-yet-popped vertices.
	rank := make([]int32, n) // original index -> local index
	for local, orig := range popped {
		rank[orig] = int32(local)
	}
	d.desc = make([]*bitset.Set, n)
	d.anc = make([]*bitset.Set, n)
	for i := range d.anc {
		d.anc[i] = bitset.New(n)
		d.desc[i] = bitset.New(n)
	}
	dominators := make([]int32, 0, 64)
	// upper holds the score of the MBB upper corner the descent is testing,
	// and indirect the ancestors of the current vertex's dominators: one
	// buffer each for the whole build.
	upper := make([]float64, dim)
	indirect := bitset.New(n)
	for local := 0; local < n; local++ {
		orig := popped[local]
		dominators = dominators[:0]
		dominators = d.findDominators(tree.Root, scores, rank, int32(local), orig, upper, dominators)
		d.domCount[local] = int32(len(dominators))
		if len(dominators) == 0 {
			d.layer[local] = 0
		} else {
			// Direct parents: dominators that are not ancestors of another
			// dominator.
			indirect.Reset()
			maxLayer := int32(-1)
			for _, u := range dominators {
				indirect.Or(d.anc[u])
				d.anc[local].Set(int(u))
				if d.layer[u] > maxLayer {
					maxLayer = d.layer[u]
				}
			}
			d.layer[local] = maxLayer + 1
			for _, u := range dominators {
				if !indirect.Test(int(u)) {
					d.parents[local] = append(d.parents[local], u)
					d.children[u] = append(d.children[u], int32(local))
				}
			}
		}
	}
	// Descendant bitsets in reverse topological order.
	for local := n - 1; local >= 0; local-- {
		for _, c := range d.children[local] {
			d.desc[local].Set(int(c))
			d.desc[local].Or(d.desc[c])
		}
	}
	return d
}

// bbsItem is a heap item: either an R-tree node or a concrete entry.
type bbsItem struct {
	key   float64
	node  *rtree.Node
	entry int32 // original index; valid when node == nil
}
type bbsHeap []bbsItem

func (h bbsHeap) Len() int           { return len(h) }
func (h bbsHeap) Less(i, j int) bool { return h[i].key > h[j].key } // max-heap
func (h bbsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bbsHeap) Push(x any)        { *h = append(*h, x.(bbsItem)) }
func (h *bbsHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// popOrder returns original indices in non-increasing pivot score via the
// BBS-style heap traversal. Ties are broken by original index so the order
// is deterministic.
func (d *DAG) popOrder(tree *rtree.Tree, scores []geom.Score, pivotScore []float64) []int32 {
	pivot := d.Region.Pivot()
	var h bbsHeap
	nodeKey := func(n *rtree.Node) float64 {
		return geom.ScoreOf(n.Box.UpperCorner()).At(pivot)
	}
	heap.Push(&h, bbsItem{key: nodeKey(tree.Root), node: tree.Root})
	order := make([]int32, 0, len(scores))
	for h.Len() > 0 {
		it := heap.Pop(&h).(bbsItem)
		if it.node == nil {
			order = append(order, it.entry)
			continue
		}
		if it.node.IsLeaf() {
			for _, e := range it.node.Entries {
				heap.Push(&h, bbsItem{key: pivotScore[e.ID], entry: e.ID})
			}
			continue
		}
		for _, c := range it.node.Children {
			heap.Push(&h, bbsItem{key: nodeKey(c), node: c})
		}
	}
	// Stabilize ties for determinism.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if pivotScore[a] != pivotScore[b] {
			return pivotScore[a] > pivotScore[b]
		}
		return a < b
	})
	return order
}

// findDominators descends the R-tree collecting already-popped vertices that
// r-dominate the vertex with original index orig. Subtrees whose MBB upper
// corner does not weakly dominate the target are pruned: since all weights
// are non-negative, the upper corner's score bounds every member's score
// from above at every w in R.
// upper is scratch for the upper corner's score; each call overwrites it.
func (d *DAG) findDominators(node *rtree.Node, scores []geom.Score, rank []int32, local int32, orig int32, upper []float64, acc []int32) []int32 {
	target := scores[orig]
	if c := d.Region.Compare(geom.ScoreInto(upper, node.Box.UpperCorner()), target); c == geom.RDominated || c == geom.RIncomparable {
		// No member of this subtree can dominate the target everywhere.
		return acc
	}
	if node.IsLeaf() {
		for _, e := range node.Entries {
			u := rank[e.ID]
			if u >= local { // not yet popped (or the target itself)
				continue
			}
			switch d.Region.Compare(scores[e.ID], target) {
			case geom.RDominates, geom.REqual:
				acc = append(acc, u)
			}
		}
		return acc
	}
	for _, c := range node.Children {
		acc = d.findDominators(c, scores, rank, local, orig, upper, acc)
	}
	return acc
}

// N returns the number of vertices in the DAG.
func (d *DAG) N() int { return len(d.IDs) }

// Parents returns the direct dominators of local vertex v.
func (d *DAG) Parents(v int32) []int32 { return d.parents[v] }

// Children returns the direct dominatees of local vertex v.
func (d *DAG) Children(v int32) []int32 { return d.children[v] }

// DomCount returns the r-dominance count of v (number of dominators).
func (d *DAG) DomCount(v int32) int { return int(d.domCount[v]) }

// Layer returns v's layer: 0 for top vertices, increasing downwards.
func (d *DAG) Layer(v int32) int { return int(d.layer[v]) }

// Dominates reports whether local vertex u r-dominates local vertex v
// (weakly: equal-everywhere pairs are ordered by pop order).
func (d *DAG) Dominates(u, v int32) bool { return d.desc[u].Test(int(v)) }

// Leaves returns the alive vertices that r-dominate no other alive vertex —
// the bottom layer lb over the alive subset, i.e. the candidates for the
// smallest-score vertex. alive is indexed by local vertex.
func (d *DAG) Leaves(alive *bitset.Set) []int32 {
	var out []int32
	alive.ForEach(func(i int) bool {
		if !d.desc[i].IntersectsWith(alive) {
			out = append(out, int32(i))
		}
		return true
	})
	return out
}

// TopLayer returns the vertices of subset with no dominator inside subset —
// the top layer lt over that subset (r-dominance count 0 within it).
func (d *DAG) TopLayer(subset *bitset.Set) []int32 {
	var out []int32
	subset.ForEach(func(i int) bool {
		if !d.anc[i].IntersectsWith(subset) {
			out = append(out, int32(i))
		}
		return true
	})
	return out
}

// Ancestors returns the bitset of all dominators of v. Callers must not
// mutate the result.
func (d *DAG) Ancestors(v int32) *bitset.Set { return d.anc[v] }

// Descendants returns the bitset of all dominatees of v. Callers must not
// mutate the result.
func (d *DAG) Descendants(v int32) *bitset.Set { return d.desc[v] }
