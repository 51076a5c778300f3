package road

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Flat G-tree form: the index reduced to three arrays so a snapshot can
// store it as raw slabs and a loader can rebuild the tree by subslicing —
// no per-node decoding, no copies. The canonical layout is:
//
//	Meta — a uvarint stream of pure topology: leaf-table length, node
//	       count, then per node (parent+1, len(children), len(vertices),
//	       len(borders), len(unionBorders)).
//	I32  — the leaf table first, then per node its children, vertices,
//	       borders, and unionBorders, concatenated in node order.
//	F64  — per node its distLeaf slab then its mat slab, in node order.
//
// Matrix extents are implied: a leaf (no children) carries a
// len(borders)×len(vertices) distLeaf and no mat; an internal node carries
// no distLeaf and a len(unionBorders)² mat. GTreeFromFlat therefore needs
// only running cursors over the two slabs.
type FlatGTree struct {
	Meta []byte
	I32  []int32
	F64  []float64
}

// FlattenGTree exports the index into the canonical flat form. The returned
// slices alias the tree's internal arrays where possible (I32/F64 are fresh
// concatenations; the tree's own slabs are copied into them), so the result
// is safe to retain independently of t.
func FlattenGTree(t *GTree) FlatGTree {
	var meta bytes.Buffer
	putUvarint(&meta, uint64(len(t.leaf)))
	putUvarint(&meta, uint64(len(t.nodes)))
	i32n := len(t.leaf)
	f64n := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		putUvarint(&meta, uint64(n.parent+1))
		putUvarint(&meta, uint64(len(n.children)))
		putUvarint(&meta, uint64(len(n.vertices)))
		putUvarint(&meta, uint64(len(n.borders)))
		putUvarint(&meta, uint64(len(n.unionBorders)))
		i32n += len(n.children) + len(n.vertices) + len(n.borders) + len(n.unionBorders)
		f64n += len(n.distLeaf) + len(n.mat)
	}
	i32 := make([]int32, 0, i32n)
	f64 := make([]float64, 0, f64n)
	i32 = append(i32, t.leaf...)
	for i := range t.nodes {
		n := &t.nodes[i]
		i32 = append(i32, n.children...)
		i32 = append(i32, n.vertices...)
		i32 = append(i32, n.borders...)
		i32 = append(i32, n.unionBorders...)
		f64 = append(f64, n.distLeaf...)
		f64 = append(f64, n.mat...)
	}
	return FlatGTree{Meta: meta.Bytes(), I32: i32, F64: f64}
}

// GTreeFromFlat rebuilds an index over g from its flat form by subslicing
// the I32/F64 slabs — zero-copy, so when the slabs are windows into an
// mmap'ed snapshot the tree reads straight off the mapping. Every value
// that will later be used as an index is bounds-checked here: the slabs
// may come from an untrusted file, and a traversal must never step outside
// the mapping or loop forever on a cyclic topology. Derived state (the
// border position slices, the scratch pool) is rebuilt in RAM.
func GTreeFromFlat(g *Graph, f FlatGTree) (*GTree, error) {
	mr := bytes.NewReader(f.Meta)
	nLeaf, err := binary.ReadUvarint(mr)
	if err != nil {
		return nil, fmt.Errorf("road: gtree meta leaf count: %w", err)
	}
	if nLeaf != uint64(g.N()) {
		return nil, fmt.Errorf("road: gtree leaf table covers %d vertices, graph has %d", nLeaf, g.N())
	}
	nNodes, err := binary.ReadUvarint(mr)
	if err != nil {
		return nil, fmt.Errorf("road: gtree meta node count: %w", err)
	}
	// Each node costs at least 5 meta bytes... at least 5 uvarints, one
	// byte each; bound by the remaining meta to block hostile counts.
	if nNodes == 0 || nNodes > uint64(mr.Len()) {
		return nil, fmt.Errorf("road: gtree meta declares %d nodes against %d meta bytes", nNodes, mr.Len())
	}
	t := &GTree{g: g, nodes: make([]gtNode, nNodes)}
	nV := int32(g.N())
	checkVerts := func(vs []int32, what string, id int) error {
		for _, v := range vs {
			if v < 0 || v >= nV {
				return fmt.Errorf("road: gtree node %d %s vertex %d out of range [0,%d)", id, what, v, nV)
			}
		}
		return nil
	}
	i32c, f64c := 0, 0 // running slab cursors
	take32 := func(n uint64) ([]int32, error) {
		if n > uint64(len(f.I32)-i32c) {
			return nil, fmt.Errorf("road: gtree i32 slab exhausted: need %d of %d remaining", n, len(f.I32)-i32c)
		}
		s := f.I32[i32c : i32c+int(n) : i32c+int(n)]
		i32c += int(n)
		return s, nil
	}
	take64 := func(n uint64) ([]float64, error) {
		if n > uint64(len(f.F64)-f64c) {
			return nil, fmt.Errorf("road: gtree f64 slab exhausted: need %d of %d remaining", n, len(f.F64)-f64c)
		}
		s := f.F64[f64c : f64c+int(n) : f64c+int(n)]
		f64c += int(n)
		return s, nil
	}
	if t.leaf, err = take32(nLeaf); err != nil {
		return nil, err
	}
	for _, id := range t.leaf {
		if id < 0 || uint64(id) >= nNodes {
			return nil, fmt.Errorf("road: gtree leaf table entry %d out of range [0,%d)", id, nNodes)
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		var counts [5]uint64
		for j := range counts {
			if counts[j], err = binary.ReadUvarint(mr); err != nil {
				return nil, fmt.Errorf("road: gtree meta node %d truncated: %w", i, err)
			}
		}
		n.parent = int32(counts[0]) - 1
		// The builder appends parents before children, so a well-formed
		// tree has parent < id (and the root, id 0, has parent -1). That
		// ordering is also what guarantees the ascend loop terminates, so
		// it is enforced, not assumed.
		if i == 0 {
			if n.parent != -1 {
				return nil, fmt.Errorf("road: gtree root has parent %d", n.parent)
			}
		} else if n.parent < 0 || int(n.parent) >= i {
			return nil, fmt.Errorf("road: gtree node %d has parent %d (want 0..%d)", i, n.parent, i-1)
		}
		if n.children, err = take32(counts[1]); err != nil {
			return nil, err
		}
		for _, c := range n.children {
			// Children strictly after their parent: keeps the descend
			// stack acyclic for the same reason as the parent check.
			if int64(c) <= int64(i) || uint64(c) >= nNodes {
				return nil, fmt.Errorf("road: gtree node %d has child %d (want %d..%d)", i, c, i+1, nNodes-1)
			}
		}
		if n.vertices, err = take32(counts[2]); err != nil {
			return nil, err
		}
		if err = checkVerts(n.vertices, "member", i); err != nil {
			return nil, err
		}
		if n.borders, err = take32(counts[3]); err != nil {
			return nil, err
		}
		if err = checkVerts(n.borders, "border", i); err != nil {
			return nil, err
		}
		if n.unionBorders, err = take32(counts[4]); err != nil {
			return nil, err
		}
		if err = checkVerts(n.unionBorders, "union border", i); err != nil {
			return nil, err
		}
		if len(n.children) == 0 {
			if n.distLeaf, err = take64(counts[3] * counts[2]); err != nil {
				return nil, err
			}
		}
		if n.mat, err = take64(counts[4] * counts[4]); err != nil {
			return nil, err
		}
	}
	if i32c != len(f.I32) || f64c != len(f.F64) {
		return nil, fmt.Errorf("road: gtree slabs have %d/%d trailing elements", len(f.I32)-i32c, len(f.F64)-f64c)
	}
	if mr.Len() != 0 {
		return nil, fmt.Errorf("road: gtree meta has %d trailing bytes", mr.Len())
	}
	// A range query moves distances between a node and its parent by
	// position and starts its ascend at a leaf, so the children lists must
	// agree with the parent links (each child listed once, by its parent)
	// and the leaf table must name leaves.
	listed := make([]bool, len(t.nodes))
	for i := range t.nodes {
		for _, c := range t.nodes[i].children {
			if t.nodes[c].parent != int32(i) || listed[c] {
				return nil, fmt.Errorf("road: gtree node %d lists child %d, which names parent %d or is listed twice", i, c, t.nodes[c].parent)
			}
			listed[c] = true
		}
	}
	for v, id := range t.leaf {
		if len(t.nodes[id].children) != 0 {
			return nil, fmt.Errorf("road: gtree leaf table maps vertex %d to internal node %d", v, id)
		}
	}
	t.derivePositions()
	t.initScratch()
	return t, nil
}
