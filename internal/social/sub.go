package social

import "math"

// Sub is a mutable induced subgraph of a Graph, supporting the cascading
// deletion of Algorithm 1's DFS procedure: deleting a vertex recursively
// deletes every vertex whose degree drops below k, then discards components
// disconnected from the query vertices. Deletions can be attempted
// tentatively and rolled back, which implements Corollary 1 (if deleting the
// smallest-score vertex would destroy the k-ĉore containing Q, the current
// community is the non-contained MAC and the deletion must not happen).
type Sub struct {
	g     *Graph
	alive []bool
	deg   []int32
	size  int

	// mark and stamp are TryDeleteCascade's scratch, never copied: within
	// one call, mark[v] == stamp flags v as a vertex the connectivity walk
	// must reach (a query vertex, or a live neighbour of the deleted batch)
	// and mark[v] == stamp+1 as reached. Each call advances stamp by two,
	// so marks left by earlier calls never match and the array is cleared
	// only when the stamp wraps. queue is the cascade stack and the walk's
	// queue in turn.
	mark  []uint32
	stamp uint32
	queue []int32
}

// NewSub builds the induced subgraph over the given vertex list.
func NewSub(g *Graph, vertices []int32) *Sub {
	s := new(Sub)
	s.ResetTo(g, vertices)
	return s
}

// Clone returns an independent copy of the subgraph state.
func (s *Sub) Clone() *Sub {
	return &Sub{
		g:     s.g,
		alive: append([]bool(nil), s.alive...),
		deg:   append([]int32(nil), s.deg...),
		size:  s.size,
	}
}

// CopyFrom overwrites s with the state of o, reusing s's storage when
// possible — the allocation-free alternative to Clone for pooled scratch.
func (s *Sub) CopyFrom(o *Sub) {
	s.g = o.g
	s.alive = append(s.alive[:0], o.alive...)
	s.deg = append(s.deg[:0], o.deg...)
	s.size = o.size
}

// ResetTo re-initializes s as the induced subgraph of g over vertices,
// reusing s's storage (the allocation-free alternative to NewSub).
func (s *Sub) ResetTo(g *Graph, vertices []int32) {
	n := g.N()
	// alive and deg can have diverging capacities (CopyFrom grows them with
	// separate appends), so both must be checked before reslicing.
	if cap(s.alive) < n || cap(s.deg) < n {
		s.alive = make([]bool, n)
		s.deg = make([]int32, n)
	} else {
		s.alive = s.alive[:n]
		s.deg = s.deg[:n]
		for i := range s.alive {
			s.alive[i] = false
		}
		for i := range s.deg {
			s.deg[i] = 0
		}
	}
	s.g = g
	s.size = 0
	for _, v := range vertices {
		if !s.alive[v] {
			s.alive[v] = true
			s.size++
		}
	}
	for _, v := range vertices {
		d := int32(0)
		for _, w := range g.adj[v] {
			if s.alive[w] {
				d++
			}
		}
		s.deg[v] = d
	}
}

// Graph returns the underlying immutable graph.
func (s *Sub) Graph() *Graph { return s.g }

// Size returns the number of alive vertices.
func (s *Sub) Size() int { return s.size }

// Alive reports whether v is in the subgraph.
func (s *Sub) Alive(v int32) bool { return s.alive[v] }

// Degree returns v's degree within the subgraph (0 if deleted).
func (s *Sub) Degree(v int32) int { return int(s.deg[v]) }

// Vertices returns the alive vertex list in increasing order.
func (s *Sub) Vertices() []int32 {
	out := make([]int32, 0, s.size)
	for v, a := range s.alive {
		if a {
			out = append(out, int32(v))
		}
	}
	return out
}

// Remove deletes v unconditionally (no cascade, no rollback), updating
// neighbor degrees. Callers that need the k-core maintained should use
// TryDeleteCascade or cascade on their own.
func (s *Sub) Remove(v int32) {
	if !s.alive[v] {
		return
	}
	s.alive[v] = false
	s.size--
	s.deg[v] = 0
	for _, w := range s.g.adj[v] {
		if s.alive[w] {
			s.deg[w]--
		}
	}
}

// remove deletes v unconditionally, updating neighbor degrees, and records
// it in the undo log.
func (s *Sub) remove(v int32, log *[]int32) {
	s.alive[v] = false
	s.size--
	s.deg[v] = 0
	for _, w := range s.g.adj[v] {
		if s.alive[w] {
			s.deg[w]--
		}
	}
	*log = append(*log, v)
}

// restore rolls back the deletions recorded in log (in reverse order).
func (s *Sub) restore(log []int32) {
	for i := len(log) - 1; i >= 0; i-- {
		v := log[i]
		s.alive[v] = true
		s.size++
		d := int32(0)
		for _, w := range s.g.adj[v] {
			if s.alive[w] {
				s.deg[w]++
				d++
			}
		}
		s.deg[v] = d
	}
}

// TryDeleteCascade tentatively deletes u, recursively deletes every vertex
// whose degree drops below k (the DFS procedure of Algorithm 1), and then
// discards any component disconnected from q[0]. If the cascade would
// delete a query vertex or disconnect Q, the subgraph is restored and
// ok=false is returned (Corollary 1 holds: the current community is a
// non-contained MAC). Otherwise the deletion batch (in deletion order) is
// returned and the subgraph reflects the new community.
//
// The alive set must be connected before the call, as every community
// Algorithm 1 keeps is. Then every component the batch cuts off holds a
// live neighbour of the batch, so the connectivity walk from q[0] stops as
// soon as it has reached Q and all of those neighbours; only when one stays
// out of reach does it finish the component and drop what lies outside.
func (s *Sub) TryDeleteCascade(u int32, k int, q []int32) (batch []int32, ok bool) {
	if !s.alive[u] {
		return nil, true
	}
	target, reached := s.nextStamp()
	pending := 0 // marked vertices the walk has not reached yet
	for _, qv := range q {
		if s.mark[qv] != target {
			s.mark[qv] = target
			pending++
		}
	}
	if s.mark[u] == target {
		return nil, false
	}
	var log []int32
	// Cascade: stack-based DFS deletion of degree violations.
	s.remove(u, &log)
	stack := s.queue[:0]
	for _, w := range s.g.adj[u] {
		if s.alive[w] && int(s.deg[w]) < k {
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !s.alive[v] || int(s.deg[v]) >= k {
			continue
		}
		if s.mark[v] == target {
			s.queue = stack
			s.restore(log)
			return nil, false
		}
		s.remove(v, &log)
		for _, w := range s.g.adj[v] {
			if s.alive[w] && int(s.deg[w]) < k {
				stack = append(stack, w)
			}
		}
	}
	s.queue = stack
	// Connectivity: keep only the component containing q[0]; other
	// components cannot host a community containing Q, and dropping them
	// cannot reduce any kept degree (no edges across components).
	if len(q) == 0 {
		return log, true
	}
	if !s.alive[q[0]] {
		s.restore(log)
		return nil, false
	}
	for _, v := range log {
		for _, w := range s.g.adj[v] {
			if s.alive[w] && s.mark[w] != target {
				s.mark[w] = target
				pending++
			}
		}
	}
	queue := append(s.queue[:0], q[0])
	s.mark[q[0]] = reached
	pending--
	for head := 0; head < len(queue) && pending > 0; head++ {
		for _, w := range s.g.adj[queue[head]] {
			if !s.alive[w] || s.mark[w] == reached {
				continue
			}
			if s.mark[w] == target {
				pending--
			}
			s.mark[w] = reached
			queue = append(queue, w)
		}
	}
	s.queue = queue
	if pending == 0 {
		return log, true
	}
	// The walk finished q[0]'s component with a mark outside it.
	for _, qv := range q {
		if s.mark[qv] != reached {
			s.restore(log)
			return nil, false
		}
	}
	for v, a := range s.alive {
		if a && s.mark[v] != reached {
			s.remove(int32(v), &log)
		}
	}
	return log, true
}

// nextStamp starts a TryDeleteCascade call's marks, growing mark to the
// graph and clearing it when the stamp would wrap.
func (s *Sub) nextStamp() (target, reached uint32) {
	if n := s.g.N(); len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.stamp = 0
	}
	if s.stamp >= math.MaxUint32-2 {
		clear(s.mark)
		s.stamp = 0
	}
	s.stamp += 2
	return s.stamp, s.stamp + 1
}

// IsConnectedKCore verifies that the alive vertices form a connected k-core
// containing every vertex of q — the invariant every community H maintained
// by the search algorithms must satisfy. Intended for tests and assertions.
func (s *Sub) IsConnectedKCore(k int, q []int32) bool {
	if s.size == 0 {
		return false
	}
	var seed int32 = -1
	for v, a := range s.alive {
		if !a {
			continue
		}
		if int(s.deg[v]) < k {
			return false
		}
		if seed < 0 {
			seed = int32(v)
		}
	}
	for _, qv := range q {
		if !s.alive[qv] {
			return false
		}
		seed = qv
	}
	if seed < 0 {
		return false
	}
	reach := make([]bool, s.g.N())
	queue := []int32{seed}
	reach[seed] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range s.g.adj[v] {
			if s.alive[w] && !reach[w] {
				reach[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == s.size
}
