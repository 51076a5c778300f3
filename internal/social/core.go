package social

import "math"

// CoreDecomposition computes the core number of every vertex with the
// O(m) bin-sort peeling algorithm of Batagelj and Zaversnik, restricted to
// the vertices where allowed[v] is true (pass nil for the whole graph).
// Vertices outside the restriction get core number -1.
func (g *Graph) CoreDecomposition(allowed []bool) (core []int, kmax int) {
	n := g.N()
	core = make([]int, n)
	deg := make([]int, n)
	maxDeg := 0
	in := func(v int32) bool { return allowed == nil || allowed[v] }
	for v := 0; v < n; v++ {
		if !in(int32(v)) {
			core[v] = -1
			continue
		}
		d := 0
		for _, w := range g.adj[v] {
			if in(w) {
				d++
			}
		}
		deg[v] = d
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Bin sort vertices by degree.
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		if core[v] != -1 {
			bin[deg[v]]++
		}
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		count := bin[d]
		bin[d] = start
		start += count
	}
	pos := make([]int, n)
	vert := make([]int32, start)
	next := append([]int(nil), bin[:maxDeg+1]...)
	for v := 0; v < n; v++ {
		if core[v] == -1 {
			continue
		}
		pos[v] = next[deg[v]]
		vert[pos[v]] = int32(v)
		next[deg[v]]++
	}
	// Peel in non-decreasing degree order.
	for i := 0; i < len(vert); i++ {
		v := vert[i]
		dv := deg[v]
		core[v] = dv
		if dv > kmax {
			kmax = dv
		}
		for _, u := range g.adj[v] {
			if !in(u) || deg[u] <= dv {
				continue
			}
			// Move u to the front of its bin, then decrement its degree.
			du := deg[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				vert[pu], vert[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			bin[du]++
			deg[u]--
		}
	}
	return core, kmax
}

// CorenessUpperBound returns the a-priori bound on the maximum possible
// coreness of a graph with nn vertices and mm edges (Section III):
// floor((1 + sqrt(9 + 8(m-n))) / 2). If k exceeds this bound no k-core
// exists, so the search can stop before any decomposition.
func CorenessUpperBound(nn, mm int) int {
	if mm < nn {
		// Sparse graphs: a k-core needs at least k+1 vertices of degree k,
		// and m >= n is required for k >= 2; degree-1 cores always exist
		// when there is any edge.
		if mm == 0 {
			return 0
		}
		return 1
	}
	return int(math.Floor((1 + math.Sqrt(float64(9+8*(mm-nn)))) / 2))
}

// MaximalKCore returns the vertex set (as a bool mask) of the maximal k-core
// within the allowed restriction (nil = whole graph), not necessarily
// connected. Returns nil if empty.
func (g *Graph) MaximalKCore(k int, allowed []bool) []bool {
	core, kmax := g.CoreDecomposition(allowed)
	if kmax < k {
		return nil
	}
	mask := make([]bool, g.N())
	any := false
	for v, c := range core {
		if c >= k {
			mask[v] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return mask
}

// ConnectedComponentOf returns the vertices reachable from seed within mask,
// as a slice, using BFS. The mask must contain seed.
func (g *Graph) ConnectedComponentOf(seed int32, mask []bool) []int32 {
	visited := make(map[int32]bool)
	queue := []int32{seed}
	visited[seed] = true
	var comp []int32
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		comp = append(comp, v)
		for _, w := range g.adj[v] {
			if mask[w] && !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return comp
}

// MaximalConnectedKCore returns the vertex list of the maximal connected
// k-core containing every vertex of Q (the maximal k-ĉore w.r.t. Q of
// Lemma 2), restricted to allowed (nil = whole graph). It returns nil when
// no such community exists (some q has coreness < k, or Q spans different
// k-core components).
func (g *Graph) MaximalConnectedKCore(q []int32, k int, allowed []bool) []int32 {
	if len(q) == 0 {
		return nil
	}
	mask := g.MaximalKCore(k, allowed)
	if mask == nil {
		return nil
	}
	for _, v := range q {
		if !mask[v] {
			return nil
		}
	}
	// BFS from q[0] on the mask itself: a vertex leaves the mask when it is
	// reached, so a query vertex still in the mask afterwards lies in
	// another component.
	comp := []int32{q[0]}
	mask[q[0]] = false
	for i := 0; i < len(comp); i++ {
		for _, w := range g.adj[comp[i]] {
			if mask[w] {
				mask[w] = false
				comp = append(comp, w)
			}
		}
	}
	for _, v := range q {
		if mask[v] {
			return nil
		}
	}
	return comp
}
