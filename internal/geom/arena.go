package geom

// cellArena slab-allocates the arrangement state one PartitionTree grows —
// cells, tree nodes, and the per-cell cut slices — so a search step that
// explores hundreds of cells pays a handful of slab allocations instead of
// four-plus heap objects per split. Slabs are never reused or trimmed:
// cells handed out via Leaves() outlive the tree (they are referenced from
// emitted CellResults), and a pointer into a slab keeps exactly that slab
// alive.
//
// Growth discipline: a slab slice is appended to only while len < cap; at
// capacity a fresh slab is started. Appending must never reallocate a slab
// in place, because previously returned pointers alias its backing array.
type cellArena struct {
	cells []Cell
	nodes []partitionNode
	cuts  []Halfspace
}

const (
	cellSlabSize = 64
	cutSlabSize  = 256
)

// cell allocates an arrangement cell from the arena.
func (a *cellArena) cell(region *Region, cuts []Halfspace) *Cell {
	if len(a.cells) == cap(a.cells) {
		a.cells = make([]Cell, 0, cellSlabSize)
	}
	a.cells = append(a.cells, Cell{Region: region, Cuts: cuts})
	return &a.cells[len(a.cells)-1]
}

// node allocates a partition-tree node from the arena.
func (a *cellArena) node(c *Cell) *partitionNode {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]partitionNode, 0, cellSlabSize)
	}
	a.nodes = append(a.nodes, partitionNode{cell: c})
	return &a.nodes[len(a.nodes)-1]
}

// appendCuts returns parent + [h] carved from the cut slab, capacity-clamped
// so a later append on the returned slice can never stomp a neighbor.
func (a *cellArena) appendCuts(parent []Halfspace, h Halfspace) []Halfspace {
	n := len(parent) + 1
	if cap(a.cuts)-len(a.cuts) < n {
		size := cutSlabSize
		if n > size {
			size = n
		}
		a.cuts = make([]Halfspace, 0, size)
	}
	start := len(a.cuts)
	a.cuts = append(a.cuts, parent...)
	a.cuts = append(a.cuts, h)
	return a.cuts[start : start+n : start+n]
}
