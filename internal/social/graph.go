// Package social implements the social-network substrate of the road-social
// model: an undirected graph whose vertices carry d-dimensional numeric
// attribute vectors, plus the k-core machinery the MAC algorithms are built
// on — Batagelj–Zaversnik core decomposition, the coreness upper bound of
// Section III, maximal connected k-cores containing query vertices, and
// mutable induced subgraphs with cascading (degree-preserving) deletion and
// rollback as required by the DFS procedure of Algorithm 1.
package social

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable undirected social network with numeric attributes.
// Vertices are dense ints [0, N). Parallel edges and self-loops are rejected
// at build time.
type Graph struct {
	adj    [][]int32
	attrs  [][]float64
	labels []string
	m      int
	d      int
}

// Builder accumulates edges and attributes before freezing into a Graph.
type Builder struct {
	n     int
	d     int
	edges [][2]int32
	attrs [][]float64
	names []string
}

// NewBuilder creates a builder for a graph with n vertices and d attributes.
func NewBuilder(n, d int) *Builder {
	return &Builder{n: n, d: d, attrs: make([][]float64, n), names: make([]string, n)}
}

// AddEdge records an undirected edge. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// SetAttrs sets the d-dimensional attribute vector of vertex v.
func (b *Builder) SetAttrs(v int, x []float64) {
	b.attrs[v] = append([]float64(nil), x...)
}

// SetLabel attaches a human-readable name to vertex v.
func (b *Builder) SetLabel(v int, name string) { b.names[v] = name }

// Build validates and freezes the graph. Duplicate edges are merged.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		adj:    make([][]int32, b.n),
		attrs:  b.attrs,
		labels: b.names,
		d:      b.d,
	}
	for i, x := range b.attrs {
		if x == nil {
			b.attrs[i] = make([]float64, b.d)
		} else if len(x) != b.d {
			return nil, fmt.Errorf("social: vertex %d has %d attributes, want %d", i, len(x), b.d)
		}
	}
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
			return nil, fmt.Errorf("social: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		}
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	// Sort and deduplicate adjacency lists.
	for v := range g.adj {
		nb := g.adj[v]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		out := nb[:0]
		var prev int32 = -1
		for _, w := range nb {
			if w != prev {
				out = append(out, w)
				prev = w
			}
		}
		g.adj[v] = out
		g.m += len(out)
	}
	g.m /= 2
	return g, nil
}

// Induced returns the subgraph of g induced by ids, relabeled so that
// vertex i stands for ids[i]; ids must be distinct vertices of g. Its rows
// and M equal those of a Builder given the same ids and edges. The rows live
// in one CSR array, filled by visiting i in increasing order so that each
// row comes out sorted without a sort. Vertex i shares ids[i]'s attribute
// vector and label with g, which is safe because attribute updates are
// copy-on-write (WithAttrs).
func (g *Graph) Induced(ids []int32) *Graph {
	n := len(ids)
	local := make([]int32, g.N()) // parent id -> local id + 1, 0 outside
	for i, v := range ids {
		local[v] = int32(i) + 1
	}
	off := make([]int32, n+1)
	for i, v := range ids {
		for _, w := range g.adj[v] {
			if local[w] != 0 {
				off[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	h := &Graph{
		adj:    make([][]int32, n),
		attrs:  make([][]float64, n),
		labels: make([]string, n),
		m:      int(off[n]) / 2,
		d:      g.d,
	}
	flat := make([]int32, off[n])
	next := slices.Clone(off[:n]) // where row j's next entry goes
	for i, v := range ids {
		h.attrs[i] = g.attrs[v]
		h.labels[i] = g.labels[v]
		for _, w := range g.adj[v] {
			if j := local[w] - 1; j >= 0 {
				flat[next[j]] = int32(i)
				next[j]++
			}
		}
	}
	for j := range h.adj {
		h.adj[j] = flat[off[j]:off[j+1]:off[j+1]]
	}
	return h
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// D returns the attribute dimensionality.
func (g *Graph) D() int { return g.d }

// Degree returns the degree of v in the full graph.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. Callers must not mutate.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Attrs returns the attribute vector of v. Callers must not mutate.
func (g *Graph) Attrs(v int) []float64 { return g.attrs[v] }

// Label returns the optional name of v (empty if unset).
func (g *Graph) Label(v int) string { return g.labels[v] }

// MaxDegree returns the maximum degree.
func (g *Graph) MaxDegree() int {
	md := 0
	for _, nb := range g.adj {
		if len(nb) > md {
			md = len(nb)
		}
	}
	return md
}

// AvgDegree returns the average degree 2m/n.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.N())
}

// HasEdge reports whether the edge (u,v) exists, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}
