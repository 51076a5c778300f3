package geom

// PartitionTree is the binary tree of half-space arrangements of Algorithm 2.
// Each internal node records the hyperplane that split it; each leaf is a
// feasible convex cell of the arrangement restricted to the root cell.
//
// Inserting the i-th hyperplane costs O(i^{d-1}) leaf visits in the worst
// case, matching the arrangement-complexity bound cited in Section V-B.
type PartitionTree struct {
	root *partitionNode
	// seen deduplicates hyperplanes: inserting the same supporting plane
	// twice is a no-op ("each half-space is computed only once").
	seen map[[8]int64]struct{}
	// arena slab-allocates the cells, nodes, and cut slices this tree
	// grows — the per-query cell arena that keeps arrangement construction
	// off the allocator's hot path.
	arena cellArena
}

type partitionNode struct {
	cell        *Cell
	hp          Halfspace // valid when internal
	left, right *partitionNode
}

// NewPartitionTree returns a tree whose single leaf is the given root cell.
func NewPartitionTree(root *Cell) *PartitionTree {
	return &PartitionTree{
		root: &partitionNode{cell: root},
		seen: make(map[[8]int64]struct{}),
	}
}

// Insert cuts every leaf cell crossed by the supporting hyperplane of h,
// implementing Algorithm 2 (Partition). Leaves entirely on one side are left
// intact. Inserting a duplicate hyperplane is a no-op. It reports whether
// the hyperplane was actually inserted (false for duplicates and trivial
// halfspaces).
func (t *PartitionTree) Insert(h Halfspace) bool {
	if trivial, _ := h.IsTrivial(); trivial {
		return false
	}
	key := h.Key()
	if _, dup := t.seen[key]; dup {
		return false
	}
	t.seen[key] = struct{}{}
	t.insertAt(t.root, h)
	return true
}

func (t *PartitionTree) insertAt(n *partitionNode, h Halfspace) {
	if n.left != nil {
		t.insertAt(n.left, h)
		t.insertAt(n.right, h)
		return
	}
	switch n.cell.Classify(h) {
	case SideBelow, SideAbove:
		// Leaf covered by one side: nothing to do (lines 1-2 of Alg. 2).
		return
	case SideSplit:
		below := t.arena.cell(n.cell.Region, t.arena.appendCuts(n.cell.Cuts, h))
		above := t.arena.cell(n.cell.Region, t.arena.appendCuts(n.cell.Cuts, h.Negate()))
		bf, af := below.Feasible(), above.Feasible()
		switch {
		case bf && af:
			n.hp = h
			n.left = t.arena.node(below)
			n.right = t.arena.node(above)
		case bf:
			n.cell = below
		case af:
			n.cell = above
		}
	}
}

// Leaves returns the feasible leaf cells of the arrangement in tree order.
func (t *PartitionTree) Leaves() []*Cell {
	var out []*Cell
	t.root.walk(func(n *partitionNode) {
		if n.cell.Feasible() {
			out = append(out, n.cell)
		}
	})
	return out
}

// LeafCount returns the number of feasible leaves.
func (t *PartitionTree) LeafCount() int {
	count := 0
	t.root.walk(func(n *partitionNode) {
		if n.cell.Feasible() {
			count++
		}
	})
	return count
}

func (n *partitionNode) walk(fn func(*partitionNode)) {
	if n.left != nil {
		n.left.walk(fn)
		n.right.walk(fn)
		return
	}
	fn(n)
}
