package road

import (
	"container/heap"
	"sync"

	"roadsocial/internal/conc"
)

// GTree is a simplified G-tree index over a road network (Zhong et al.,
// TKDE 2015): the graph is recursively bisected into a balanced hierarchy;
// each node stores its border vertices (vertices with an edge leaving the
// node's subgraph) and a distance matrix between the borders of its
// children computed within the node's subgraph; leaves additionally store
// border-to-member distances. Single-source range queries ascend from the
// source leaf to the root (after which border distances are globally exact)
// and then descend best-first, pruning every subtree whose borders are all
// beyond the bound. This reproduces the role the paper assigns to G-tree /
// G*-tree: accelerating the Lemma 1 range filter when user locations are
// sparse relative to the road ball of radius t.
//
// Concurrency: after BuildGTree returns, the index is immutable and safe
// for concurrent queries from any number of goroutines — per-query scratch
// (visit stamps, the per-vertex distance array, the Dijkstra heap and the
// per-node distance vectors) is drawn from an internal sync.Pool rather
// than stored in the struct. QueryDistances additionally
// runs its per-query-location searches on Parallelism workers.
type GTree struct {
	g     *Graph
	nodes []gtNode
	leaf  []int32 // per road vertex: its leaf node id

	// Parallelism bounds the workers used per QueryDistances call; <= 0
	// selects GOMAXPROCS, 1 forces sequential execution. The result is
	// a per-user max over query locations, so it is identical for every
	// parallelism level.
	Parallelism int

	scratch sync.Pool // *gtScratch
}

// gtNode is one node of the hierarchy. The distance matrices are flat
// row-major slabs rather than slice-of-slices: distLeaf is
// len(borders)×len(vertices) and mat is len(unionBorders)² — a single
// allocation each (or, for a snapshot-loaded tree, a zero-copy window into
// the snapshot's float slab), indexed by leafDist/matAt.
type gtNode struct {
	parent   int32
	children []int32
	vertices []int32 // vertices of the subtree (all nodes keep them)
	borders  []int32
	// leaf: distLeaf[bi*len(vertices)+vi] = within-leaf distance
	// borders[bi] -> vertices[vi]
	distLeaf []float64
	// internal: union of children borders and pairwise within-subgraph
	// matrix, mat[i*len(unionBorders)+j] = dist unionBorders[i] -> [j]
	unionBorders []int32
	mat          []float64
	// A range query holds one distance vector per node, over its vecVerts.
	// up[i] is the position of vecVerts()[i] in the parent's unionBorders,
	// -1 if absent: the only node state not stored in a snapshot, derived
	// by derivePositions.
	up []int32
}

// vecVerts are the vertices a range query's vector for the node covers: a
// leaf's borders, an internal node's unionBorders. An internal node's
// borders are among its unionBorders, and they are exactly the ones its
// parent's unionBorders hold too.
func (n *gtNode) vecVerts() []int32 {
	if len(n.children) == 0 {
		return n.borders
	}
	return n.unionBorders
}

// leafDist reads the border-to-member matrix of a leaf node.
func (n *gtNode) leafDist(bi, vi int) float64 { return n.distLeaf[bi*len(n.vertices)+vi] }

// matAt reads the pairwise border matrix of an internal node.
func (n *gtNode) matAt(i, j int) float64 { return n.mat[i*len(n.unionBorders)+j] }

// derivePositions fills every child's up slice, so that a range query
// moves distances between levels by position alone.
func (t *GTree) derivePositions() {
	pos := make([]int32, t.g.N())
	for i := range pos {
		pos[i] = -1
	}
	for id := range t.nodes {
		n := &t.nodes[id]
		for j, b := range n.unionBorders {
			pos[b] = int32(j)
		}
		for _, c := range n.children {
			cn := &t.nodes[c]
			cn.up = make([]int32, len(cn.vecVerts()))
			for i, v := range cn.vecVerts() {
				cn.up[i] = pos[v]
			}
		}
		for _, b := range n.unionBorders {
			pos[b] = -1
		}
	}
}

// gtScratch is the per-query working state, pooled so that one immutable
// index serves many concurrent goroutines without allocation churn.
type gtScratch struct {
	stamp   []int32
	stampID int32
	dist    []float64 // per road vertex; also a range query's result
	q       pq

	// Range-query state, reset per query: f64 backs the per-node distance
	// vectors, anc and asc hold the ascend chain (the source leaf first,
	// with its within-node vectors), stack the descend frames and live the
	// finite operands of one min-plus step.
	f64   []float64
	anc   []int32
	asc   [][]float64
	stack []gtFrame
	live  []int32
}

// gtFrame is one descend step: a node and the exact distances on its
// vecVerts that cross its borders, Inf elsewhere.
type gtFrame struct {
	node int32
	vec  []float64
}

// alloc hands out n floats of the per-query arena. Growing starts a fresh
// backing array, so the vectors handed out before stay valid.
func (sc *gtScratch) alloc(n int) []float64 {
	if len(sc.f64)+n > cap(sc.f64) {
		sc.f64 = make([]float64, 0, 2*cap(sc.f64)+n)
	}
	l := len(sc.f64)
	sc.f64 = sc.f64[:l+n]
	return sc.f64[l : l+n : l+n]
}

// gather returns v[pos[i]] for each i, Inf where pos[i] < 0.
func (sc *gtScratch) gather(pos []int32, v []float64) []float64 {
	out := sc.alloc(len(pos))
	for i, p := range pos {
		out[i] = Inf
		if p >= 0 {
			out[i] = v[p]
		}
	}
	return out
}

// scatter returns an n-vector holding v[i] at pos[i], Inf elsewhere.
func (sc *gtScratch) scatter(n int, pos []int32, v []float64) []float64 {
	out := sc.alloc(n)
	for i := range out {
		out[i] = Inf
	}
	for i, p := range pos {
		if p >= 0 {
			out[p] = v[i]
		}
	}
	return out
}

func (t *GTree) getScratch() *gtScratch {
	return t.scratch.Get().(*gtScratch)
}

func (t *GTree) putScratch(sc *gtScratch) {
	t.scratch.Put(sc)
}

// initScratch installs the pool constructor; every GTree constructor
// (build, flat snapshot load) funnels through it.
func (t *GTree) initScratch() {
	n := t.g.N()
	t.scratch.New = func() any {
		return &gtScratch{
			stamp: make([]int32, n),
			dist:  make([]float64, n),
		}
	}
}

func (sc *gtScratch) newStamp() int32 {
	sc.stampID++
	return sc.stampID
}

// MaxLeafSize is the default leaf capacity of the hierarchy.
const MaxLeafSize = 64

// BuildGTree constructs the index. maxLeaf <= 0 selects MaxLeafSize.
func BuildGTree(g *Graph, maxLeaf int) *GTree {
	if maxLeaf <= 0 {
		maxLeaf = MaxLeafSize
	}
	g.Freeze()
	t := &GTree{
		g:    g,
		leaf: make([]int32, g.N()),
	}
	t.initScratch()
	sc := t.getScratch()
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	t.build(all, -1, maxLeaf, sc)
	t.computeBorders(sc)
	t.computeMatrices(sc)
	t.putScratch(sc)
	t.derivePositions()
	return t
}

// build recursively bisects the vertex set, appending nodes; returns node id.
func (t *GTree) build(vertices []int32, parent int32, maxLeaf int, sc *gtScratch) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, gtNode{parent: parent, vertices: vertices})
	if len(vertices) <= maxLeaf {
		for _, v := range vertices {
			t.leaf[v] = id
		}
		return id
	}
	left, right := t.bisect(vertices, sc)
	lc := t.build(left, id, maxLeaf, sc)
	rc := t.build(right, id, maxLeaf, sc)
	t.nodes[id].children = []int32{lc, rc}
	return id
}

// bisect splits a vertex set into two balanced halves using BFS layering
// from a pseudo-peripheral vertex — a cheap stand-in for the multilevel
// partitioning G-tree uses, adequate for planar-like road graphs.
func (t *GTree) bisect(vertices []int32, sc *gtScratch) (left, right []int32) {
	inSet := sc.newStamp()
	for _, v := range vertices {
		sc.stamp[v] = inSet
	}
	// Find a pseudo-peripheral start: BFS from vertices[0], take the last
	// reached vertex, BFS again from it.
	start := t.bfsLast(vertices[0], inSet, sc)
	order := t.bfsOrder(start, inSet, len(vertices), sc)
	// Vertices in components unreached by the BFS fall into the right half.
	half := len(vertices) / 2
	if len(order) >= half {
		left = append(left, order[:half]...)
	} else {
		left = append(left, order...)
	}
	inLeft := make(map[int32]bool, len(left))
	for _, v := range left {
		inLeft[v] = true
	}
	for _, v := range vertices {
		if !inLeft[v] {
			right = append(right, v)
		}
	}
	return left, right
}

// bfsLast returns the last vertex reached by BFS from s within the stamped set.
func (t *GTree) bfsLast(s int32, setID int32, sc *gtScratch) int32 {
	c := t.g.ensure()
	visited := map[int32]bool{s: true}
	queue := []int32{s}
	last := s
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		last = v
		nb, _ := c.neighbors(v)
		for _, to := range nb {
			if sc.stamp[to] == setID && !visited[to] {
				visited[to] = true
				queue = append(queue, to)
			}
		}
	}
	return last
}

// bfsOrder returns up to limit vertices in BFS order from s within the set.
func (t *GTree) bfsOrder(s int32, setID int32, limit int, sc *gtScratch) []int32 {
	c := t.g.ensure()
	visited := map[int32]bool{s: true}
	queue := []int32{s}
	order := make([]int32, 0, limit)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nb, _ := c.neighbors(v)
		for _, to := range nb {
			if sc.stamp[to] == setID && !visited[to] {
				visited[to] = true
				queue = append(queue, to)
			}
		}
	}
	return order
}

// computeBorders fills the border list of every node: vertices with an edge
// leaving the node's vertex set.
func (t *GTree) computeBorders(sc *gtScratch) {
	c := t.g.ensure()
	for id := range t.nodes {
		n := &t.nodes[id]
		setID := sc.newStamp()
		for _, v := range n.vertices {
			sc.stamp[v] = setID
		}
		for _, v := range n.vertices {
			nb, _ := c.neighbors(v)
			for _, to := range nb {
				if sc.stamp[to] != setID {
					n.borders = append(n.borders, v)
					break
				}
			}
		}
		if int32(id) == 0 {
			// The root has no outside, hence no borders; its unionBorders
			// still matter.
			n.borders = nil
		}
	}
}

// computeMatrices fills leaf border-to-member matrices and internal
// children-border matrices via Dijkstra restricted to each node's subgraph.
// Each matrix is one flat row-major slab.
func (t *GTree) computeMatrices(sc *gtScratch) {
	for id := range t.nodes {
		n := &t.nodes[id]
		setID := sc.newStamp()
		for _, v := range n.vertices {
			sc.stamp[v] = setID
		}
		if len(n.children) == 0 {
			n.distLeaf = make([]float64, len(n.borders)*len(n.vertices))
			for bi, b := range n.borders {
				d := t.restrictedDijkstra(b, setID, sc)
				row := n.distLeaf[bi*len(n.vertices) : (bi+1)*len(n.vertices)]
				for vi, v := range n.vertices {
					row[vi] = d[v]
				}
			}
			continue
		}
		// Union of children borders, deduplicated.
		seen := make(map[int32]bool)
		for _, c := range n.children {
			for _, b := range t.nodes[c].borders {
				if !seen[b] {
					seen[b] = true
					n.unionBorders = append(n.unionBorders, b)
				}
			}
		}
		ub := len(n.unionBorders)
		n.mat = make([]float64, ub*ub)
		for i, b := range n.unionBorders {
			d := t.restrictedDijkstra(b, setID, sc)
			row := n.mat[i*ub : (i+1)*ub]
			for j, b2 := range n.unionBorders {
				row[j] = d[b2]
			}
		}
	}
}

// restrictedDijkstra runs Dijkstra from s visiting only vertices whose stamp
// equals setID. It returns the scratch distance array (valid until the next
// call on the same scratch); callers must copy what they need.
func (t *GTree) restrictedDijkstra(s int32, setID int32, sc *gtScratch) []float64 {
	c := t.g.ensure()
	d := sc.dist
	for i := range d {
		d[i] = Inf
	}
	q := sc.q[:0]
	d[s] = 0
	heap.Push(&q, pqItem{v: s, d: 0})
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.d > d[it.v] {
			continue
		}
		for k, e := c.off[it.v], c.off[it.v+1]; k < e; k++ {
			to := c.nbr[k]
			if sc.stamp[to] != setID {
				continue
			}
			nd := it.d + c.wgt[k]
			if nd < d[to] {
				d[to] = nd
				heap.Push(&q, pqItem{v: to, d: nd})
			}
		}
	}
	sc.q = q
	return d
}

// QueryDistances implements Oracle: max-over-queries distance to each user,
// pruned at bound. Edge-located query sources fall back to plain Dijkstra.
// Query locations are processed by up to Parallelism workers; the per-user
// max-fold is order-independent, so output never depends on scheduling.
// The plain index has no Cancel knob (use WithCancel for one), so the
// returned error is always nil.
func (t *GTree) QueryDistances(queries []Location, users []Location, bound float64) ([]float64, error) {
	return t.queryDistances(queries, users, bound, nil)
}

// WithCancel implements Cancelable: the returned view shares the immutable
// index but aborts traversals — the ascend/descend walk and the Dijkstra
// fallback — with ErrCanceled once cancel closes. The query layer binds
// Query.Cancel through this, so an abandoned search stops burning the
// index mid-traversal instead of at the next whole-oracle boundary.
func (t *GTree) WithCancel(cancel <-chan struct{}) Oracle {
	if cancel == nil {
		return t
	}
	return cancelGTree{t: t, cancel: cancel}
}

// cancelGTree is the per-query cancelable view over a shared GTree.
type cancelGTree struct {
	t      *GTree
	cancel <-chan struct{}
}

// QueryDistances implements Oracle.
func (c cancelGTree) QueryDistances(queries []Location, users []Location, bound float64) ([]float64, error) {
	return c.t.queryDistances(queries, users, bound, c.cancel)
}

func (t *GTree) queryDistances(queries []Location, users []Location, bound float64, cancel <-chan struct{}) ([]float64, error) {
	return maxFoldQueries(conc.Parallelism(t.Parallelism), len(queries), len(users), cancel,
		func(qi int, row []float64) error { return t.queryRow(queries[qi], users, bound, row, cancel) })
}

// queryRow fills row[i] with the network distance from qloc to users[i]
// (values beyond bound may be reported as Inf).
func (t *GTree) queryRow(qloc Location, users []Location, bound float64, row []float64, cancel <-chan struct{}) error {
	if !qloc.OnVertex() {
		dist, err := t.g.DistancesFromCancel(qloc, bound, cancel)
		if err != nil {
			return err
		}
		fillRow(qloc, dist, users, row)
		return nil
	}
	sc := t.getScratch()
	defer t.putScratch(sc)
	dist, err := t.sourceDistances(sc, qloc.U, bound, cancel)
	if err != nil {
		return err
	}
	fillRow(qloc, dist, users, row)
	return nil
}

// sourceDistances computes exact network distances from road vertex s to all
// road vertices within bound, using the ascend/descend G-tree strategy. It
// returns sc.dist, indexed by road vertex and Inf beyond bound, valid until
// sc is used again. Per-node distance vectors are indexed by position in
// the node's borders or unionBorders. cancel (nil allowed) is polled once
// per ascend level and once per descend frame — the units of the
// traversal — so an abandoned query stops within one node's worth of work.
func (t *GTree) sourceDistances(sc *gtScratch, s int32, bound float64, cancel <-chan struct{}) ([]float64, error) {
	sc.f64 = sc.f64[:0]
	leafID := t.leaf[s]

	// Within-leaf distances first. vec holds the distances on the vecVerts
	// of the node the ascend has reached, exact within that node.
	ln := &t.nodes[leafID]
	setID := sc.newStamp()
	for _, v := range ln.vertices {
		sc.stamp[v] = setID
	}
	dist := t.restrictedDijkstra(s, setID, sc)
	vec := sc.alloc(len(ln.borders))
	for i, b := range ln.borders {
		vec[i] = dist[b]
	}
	for _, v := range ln.vertices {
		if dist[v] > bound {
			dist[v] = Inf // corrected below if a border offers a shorter path
		}
	}

	// Ascend: within-subgraph distances from s to each ancestor's
	// unionBorders. asc keeps each level's vector: the descend phase must
	// merge them, because paths to vertices inside an ancestor of the
	// source need not cross the ancestor's borders.
	sc.anc, sc.asc = append(sc.anc[:0], leafID), append(sc.asc[:0], nil)
	for child, node := leafID, ln.parent; node >= 0; child, node = node, t.nodes[node].parent {
		if chanClosed(cancel) {
			return nil, ErrCanceled
		}
		n := &t.nodes[node]
		in := sc.scatter(len(n.unionBorders), t.nodes[child].up, vec)
		vec = sc.alloc(len(n.unionBorders))
		sc.minPlus(n, vec, in, nil)
		sc.anc, sc.asc = append(sc.anc, node), append(sc.asc, vec)
	}
	// The last level is the root, whose subgraph is the whole graph, so its
	// vector holds globally exact distances on the root's unionBorders.
	root := &t.nodes[0]
	if len(root.children) == 0 {
		// Single-leaf tree: the within-leaf pass above is already global.
		return dist, nil
	}

	// Descend best-first from the root, pruning subtrees entirely beyond the
	// bound. Ancestors of the source leaf are never pruned (distance may be 0).
	rootUB := sc.asc[len(sc.asc)-1]
	sc.stack = sc.stack[:0]
	for _, c := range root.children {
		sc.stack = append(sc.stack, gtFrame{node: c, vec: sc.gather(t.nodes[c].up, rootUB)})
	}
	for len(sc.stack) > 0 {
		if chanClosed(cancel) {
			return nil, ErrCanceled
		}
		fr := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		n := &t.nodes[fr.node]
		minB := Inf
		for _, d := range fr.vec {
			if d < minB {
				minB = d
			}
		}
		var within []float64 // the ascend vector of an ancestor of the source
		ancestor := false
		for k, a := range sc.anc {
			if a == fr.node {
				within, ancestor = sc.asc[k], true
				break
			}
		}
		if minB > bound && !ancestor {
			continue
		}
		if len(n.children) == 0 {
			for vi, v := range n.vertices {
				best := dist[v]
				for bi, db := range fr.vec {
					if db < Inf {
						if val := db + n.leafDist(bi, vi); val < best {
							best = val
						}
					}
				}
				if best <= bound {
					dist[v] = best
				}
			}
			continue
		}
		// Extend exact distances to this node's unionBorders, then push
		// children with their vectors. For ancestors of the source leaf,
		// merge the within-node ascend distances: the source lies inside,
		// so paths need not cross the node's borders.
		ub := sc.alloc(len(n.unionBorders))
		sc.minPlus(n, ub, fr.vec, within)
		for _, c := range n.children {
			sc.stack = append(sc.stack, gtFrame{node: c, vec: sc.gather(t.nodes[c].up, ub)})
		}
	}
	return dist, nil
}

// minPlus extends distances across an internal node: out[bi] is the least
// of in[bi], in[bj] + matAt(bj, bi) over the finite in[bj], and within[bi]
// when within is not nil.
func (sc *gtScratch) minPlus(n *gtNode, out, in, within []float64) {
	live := sc.live[:0]
	for bj, d := range in {
		if d < Inf {
			live = append(live, int32(bj))
		}
	}
	sc.live = live
	for bi := range out {
		best := in[bi]
		for _, bj := range live {
			if v := in[bj] + n.matAt(int(bj), bi); v < best {
				best = v
			}
		}
		if within != nil && within[bi] < best {
			best = within[bi]
		}
		out[bi] = best
	}
}
