package social

import (
	"fmt"
	"sort"
)

// Live mutable graphs: copy-on-write edge/attribute updates plus incremental
// maintenance of the core and truss decompositions.
//
// Graph is immutable, and the service tier depends on that — in-flight
// searches keep reading the graph they started on. A mutation therefore
// never edits a Graph in place: WithEdge/WithoutEdge/WithAttrs build a new
// Graph sharing every untouched adjacency row and attribute vector with the
// original, so a single-edge update costs O(n) slice headers plus the two
// changed rows, not a rebuild.
//
// The decompositions are maintained incrementally rather than recomputed:
//
//   - Core (insert/delete of one edge): by the subcore theorem (Sarıyüce et
//     al., PVLDB 2013; Li, Yu & Mao, TKDE 2014), only vertices with core
//     number r = min(core(u), core(v)) that are reachable from the endpoints
//     through vertices of core number exactly r can change, and each by at
//     most 1. IncrementalCoreInsert/Delete collect that subcore and re-peel
//     it with the rest of the graph frozen: a neighbor outside the candidate
//     set counts toward the effective degree iff its (unchanged) core number
//     clears the peeling threshold. The peel is exact — survivors provably
//     hold the higher value, peeled vertices provably cannot.
//
//   - Truss (insert/delete of one edge): by the triangle-connectivity
//     theorem (Huang et al., SIGMOD 2014), an edge whose truss number
//     changes must be triangle-connected to the mutated edge through a chain
//     of triangles whose every edge has an old truss number at least its
//     own. trussCandidates over-approximates that set with a max-min label
//     propagation, and trussRepeel recomputes exact new truss numbers for
//     the candidates with every other edge frozen at its old value — a
//     stage-k peel where a frozen edge participates in stage k iff its old
//     truss number is at least k+1, mirroring the full decomposition's
//     level semantics.
//
// Both re-peels are exact for any candidate superset of the true changed
// set, so over-approximation is safe; the differential tests assert equality
// with from-scratch CoreDecomposition/TrussDecomposition after randomized
// mutation sequences.

// insertSorted returns a new slice with x inserted into sorted row.
func insertSorted(row []int32, x int32) []int32 {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= x })
	out := make([]int32, len(row)+1)
	copy(out, row[:i])
	out[i] = x
	copy(out[i+1:], row[i:])
	return out
}

// removeSorted returns a new slice with x removed from sorted row.
func removeSorted(row []int32, x int32) []int32 {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= x })
	out := make([]int32, len(row)-1)
	copy(out, row[:i])
	copy(out[i:], row[i+1:])
	return out
}

func (g *Graph) checkVertex(v int) error {
	if v < 0 || v >= g.N() {
		return fmt.Errorf("social: vertex %d out of range [0,%d)", v, g.N())
	}
	return nil
}

// WithEdge returns a copy-on-write clone of g with the edge (u,v) added.
// Only the two changed adjacency rows are fresh; everything else is shared
// with g, which is left untouched. Self-loops and existing edges are errors.
func (g *Graph) WithEdge(u, v int) (*Graph, error) {
	if err := g.checkVertex(u); err != nil {
		return nil, err
	}
	if err := g.checkVertex(v); err != nil {
		return nil, err
	}
	if u == v {
		return nil, fmt.Errorf("social: self-loop (%d,%d)", u, v)
	}
	if g.HasEdge(u, v) {
		return nil, fmt.Errorf("social: edge (%d,%d) already exists", u, v)
	}
	adj := make([][]int32, len(g.adj))
	copy(adj, g.adj)
	adj[u] = insertSorted(g.adj[u], int32(v))
	adj[v] = insertSorted(g.adj[v], int32(u))
	return &Graph{adj: adj, attrs: g.attrs, labels: g.labels, m: g.m + 1, d: g.d}, nil
}

// WithoutEdge returns a copy-on-write clone of g with the edge (u,v)
// removed. A missing edge is an error.
func (g *Graph) WithoutEdge(u, v int) (*Graph, error) {
	if err := g.checkVertex(u); err != nil {
		return nil, err
	}
	if err := g.checkVertex(v); err != nil {
		return nil, err
	}
	if u == v || !g.HasEdge(u, v) {
		return nil, fmt.Errorf("social: edge (%d,%d) does not exist", u, v)
	}
	adj := make([][]int32, len(g.adj))
	copy(adj, g.adj)
	adj[u] = removeSorted(g.adj[u], int32(v))
	adj[v] = removeSorted(g.adj[v], int32(u))
	return &Graph{adj: adj, attrs: g.attrs, labels: g.labels, m: g.m - 1, d: g.d}, nil
}

// WithAttrs returns a copy-on-write clone of g with vertex v's attribute
// vector replaced. The vector's length must match the graph's dimension.
func (g *Graph) WithAttrs(v int, x []float64) (*Graph, error) {
	if err := g.checkVertex(v); err != nil {
		return nil, err
	}
	if len(x) != g.d {
		return nil, fmt.Errorf("social: vertex %d given %d attributes, want %d", v, len(x), g.d)
	}
	attrs := make([][]float64, len(g.attrs))
	copy(attrs, g.attrs)
	attrs[v] = append([]float64(nil), x...)
	return &Graph{adj: g.adj, attrs: attrs, labels: g.labels, m: g.m, d: g.d}, nil
}

// subcore collects the candidate set for a single-edge core update: every
// vertex with core number exactly r reachable from the roots through
// vertices of core number exactly r. The set is closed under adjacency at
// level r, so no vertex outside it with core r can touch a member.
func (g *Graph) subcore(core []int, roots []int32, r int) (cand []int32, inC map[int32]bool) {
	inC = make(map[int32]bool)
	var queue []int32
	for _, root := range roots {
		if core[root] == r && !inC[root] {
			inC[root] = true
			queue = append(queue, root)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		cand = append(cand, v)
		for _, w := range g.adj[v] {
			if core[w] == r && !inC[w] {
				inC[w] = true
				queue = append(queue, w)
			}
		}
	}
	return cand, inC
}

// IncrementalCoreInsert updates core (computed on the graph without the
// edge) in place after the edge (u,v) was inserted; g must already contain
// the edge. It returns the vertices whose core number changed (each by +1).
func (g *Graph) IncrementalCoreInsert(core []int, u, v int32) (changed []int32) {
	r := core[u]
	if core[v] < r {
		r = core[v]
	}
	cand, inC := g.subcore(core, []int32{u, v}, r)
	// Restricted re-peel with the outside frozen: a candidate survives at
	// level r+1 iff it keeps more than r neighbors among surviving
	// candidates and vertices whose (unchanged) core number already exceeds
	// r. Survivors move to r+1; peeled candidates provably stay at r.
	deg := make(map[int32]int, len(cand))
	var queue []int32
	for _, w := range cand {
		d := 0
		for _, x := range g.adj[w] {
			if core[x] > r || inC[x] {
				d++
			}
		}
		deg[w] = d
		if d <= r {
			queue = append(queue, w)
		}
	}
	peeled := make(map[int32]bool, len(cand))
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if peeled[w] {
			continue
		}
		peeled[w] = true
		for _, x := range g.adj[w] {
			if inC[x] && !peeled[x] {
				deg[x]--
				if deg[x] <= r {
					queue = append(queue, x)
				}
			}
		}
	}
	for _, w := range cand {
		if !peeled[w] {
			core[w] = r + 1
			changed = append(changed, w)
		}
	}
	return changed
}

// IncrementalCoreDelete updates core (computed on the graph with the edge)
// in place after the edge (u,v) was deleted; g must no longer contain the
// edge. It returns the vertices whose core number changed (each by -1).
func (g *Graph) IncrementalCoreDelete(core []int, u, v int32) (changed []int32) {
	r := core[u]
	if core[v] < r {
		r = core[v]
	}
	// Both endpoints seed the walk: a pre-deletion path to the far side of
	// the removed edge is still covered because each endpoint roots its own
	// component.
	cand, inC := g.subcore(core, []int32{u, v}, r)
	deg := make(map[int32]int, len(cand))
	var queue []int32
	for _, w := range cand {
		d := 0
		for _, x := range g.adj[w] {
			if core[x] > r || inC[x] {
				d++
			}
		}
		deg[w] = d
		if d < r {
			queue = append(queue, w)
		}
	}
	peeled := make(map[int32]bool, len(cand))
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if peeled[w] {
			continue
		}
		peeled[w] = true
		for _, x := range g.adj[w] {
			if inC[x] && !peeled[x] {
				deg[x]--
				if deg[x] < r {
					queue = append(queue, x)
				}
			}
		}
	}
	for _, w := range cand {
		if peeled[w] {
			core[w] = r - 1
			changed = append(changed, w)
		}
	}
	return changed
}

// trussInf stands in for the truss number of the edge being inserted, which
// has no old value: chains may pass through it freely.
const trussInf = int(1) << 30

// edgeSlots is per-call scratch for the truss kernels, aligned with the
// adjacency rows: the state of the undirected edge (x, w) lives at slot
// (x, position of w in adj[x]) and its mirror (w, position of x in adj[w]),
// kept value-identical by every write. The triangle loops walk two adjacency
// rows in lockstep, so both slots of every triangle edge are known by
// position and the hot paths never hash an int64 edge key.
type edgeSlots struct {
	tau   [][]int32 // old truss number per slot; trussInf for the inserted edge
	label [][]int32 // best chain bottleneck per slot; 0 = unreached
}

// pos returns the position of x in adj[w]; the edge (w, x) must exist.
func (g *Graph) pos(w, x int32) int {
	row := g.adj[w]
	return sort.Search(len(row), func(i int) bool { return row[i] >= x })
}

// newEdgeSlots builds the positional scratch for one incremental truss
// update: one O(m) pass of key hashing here buys hash-free triangle loops in
// trussCandidates and trussRepeel. g is the post-mutation graph; for an
// insertion the new edge's slots read trussInf so chains pass through it
// freely.
func (g *Graph) newEdgeSlots(truss map[int64]int, u, v int32, insert bool) *edgeSlots {
	total := 0
	for _, row := range g.adj {
		total += len(row)
	}
	slab := make([]int32, 2*total)
	tauSlab, labSlab := slab[:total], slab[total:]
	es := &edgeSlots{tau: make([][]int32, len(g.adj)), label: make([][]int32, len(g.adj))}
	for x := range g.adj {
		row := g.adj[x]
		n := len(row)
		es.tau[x], tauSlab = tauSlab[:n:n], tauSlab[n:]
		es.label[x], labSlab = labSlab[:n:n], labSlab[n:]
		for i, w := range row {
			if insert && ((int32(x) == u && w == v) || (int32(x) == v && w == u)) {
				es.tau[x][i] = int32(trussInf)
			} else {
				es.tau[x][i] = int32(truss[edgeKey(int32(x), w)])
			}
		}
	}
	return es
}

// trussCandidates runs the max-min label propagation that over-approximates
// the set of edges whose truss number can change after mutating the edge
// (u,v). A changed edge f must be triangle-connected to the mutated edge
// through triangles whose every edge has old truss number >= tau(f); the
// label of an edge is the best (largest) bottleneck over such chains, and f
// is a candidate iff its label reaches its own old truss number. g is the
// post-mutation graph; for a deletion the seed triangles through the removed
// edge are enumerated explicitly from its endpoints.
func (g *Graph) trussCandidates(truss map[int64]int, u, v int32, insert bool, es *edgeSlots) map[int64]bool {
	eKey := edgeKey(u, v)
	// Seed: the triangles containing the mutated edge. For an insertion the
	// edge is present in g and labels flow through it unbounded; for a
	// deletion every chain is capped by the removed edge's old number.
	seedCap := int32(trussInf)
	if !insert {
		seedCap = int32(truss[eKey])
	}
	type slot struct{ x, pos int32 }
	type seed struct {
		s   slot
		w   int32
		lab int32
	}
	var seeds []seed
	maxLab := int32(0)
	a, b := g.adj[u], g.adj[v]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			w := a[i]
			lab := seedCap
			if t := es.tau[u][i]; t < lab {
				lab = t
			}
			if t := es.tau[v][j]; t < lab {
				lab = t
			}
			seeds = append(seeds, seed{slot{u, int32(i)}, w, lab}, seed{slot{v, int32(j)}, w, lab})
			if lab > maxLab {
				maxLab = lab
			}
			i++
			j++
		}
	}
	// Labels only shrink along a chain (each step takes a min), so the
	// propagation is a max-min Dijkstra over a bucket queue indexed by label:
	// draining buckets from maxLab down finalizes every edge's label the
	// first time it is expanded — one triangle enumeration per reached edge,
	// where a plain worklist would re-expand edges once per label
	// improvement. Seed labels are real truss numbers (never trussInf: both
	// non-mutated triangle edges cap the min), so the bucket array stays
	// small.
	label := es.label
	buckets := make([][]slot, maxLab+1)
	push := func(x, w int32, pos int, lab int32) {
		if lab <= label[x][pos] {
			return
		}
		label[x][pos] = lab
		label[w][g.pos(w, x)] = lab
		buckets[lab] = append(buckets[lab], slot{x, int32(pos)})
	}
	for _, s := range seeds {
		push(s.s.x, s.w, int(s.s.pos), s.lab)
	}
	for lk := maxLab; lk >= 2; lk-- {
		// Same-label pushes append to the bucket being drained; index loop
		// picks them up in this pass.
		for bi := 0; bi < len(buckets[lk]); bi++ {
			sl := buckets[lk][bi]
			fu := sl.x
			if label[fu][sl.pos] != lk {
				continue // stale entry from an earlier, lower label
			}
			fv := g.adj[fu][sl.pos]
			fa, fb := g.adj[fu], g.adj[fv]
			fi, fj := 0, 0
			for fi < len(fa) && fj < len(fb) {
				switch {
				case fa[fi] < fb[fj]:
					fi++
				case fa[fi] > fb[fj]:
					fj++
				default:
					w := fa[fi]
					lab := lk
					if t := es.tau[fu][fi]; t < lab {
						lab = t
					}
					if t := es.tau[fv][fj]; t < lab {
						lab = t
					}
					push(fu, w, fi, lab)
					push(fv, w, fj, lab)
					fi++
					fj++
				}
			}
		}
		buckets[lk] = nil
	}
	cand := make(map[int64]bool)
	for x := range g.adj {
		row := g.adj[x]
		for i, w := range row {
			if w <= int32(x) {
				continue // count each undirected edge once
			}
			lab := label[x][i]
			if lab == 0 {
				continue
			}
			k := edgeKey(int32(x), w)
			if k == eKey {
				continue
			}
			if int(lab) >= truss[k] {
				cand[k] = true
			}
		}
	}
	if insert {
		cand[eKey] = true
	}
	return cand
}

// TrussDelta records one edge's truss-number change: the old value (and
// whether the edge had one — a freshly inserted edge does not), so a caller
// holding a batch of deltas can roll the map back without having cloned it.
type TrussDelta struct {
	Key     int64
	Old     int
	Existed bool
}

// trussRepeel recomputes exact truss numbers for the candidate edges with
// every other edge frozen at its old value, writing the new values into
// truss and returning a delta per key whose value changed. Stage k decides who
// survives into the (k+1)-truss: a frozen edge participates iff its old
// number is at least k+1; candidates removed during stage k get truss
// number k, exactly like the full decomposition. g is the post-mutation
// graph; for a deletion the removed edge's entry must already be gone from
// truss and cand.
func (g *Graph) trussRepeel(truss map[int64]int, cand map[int64]bool, es *edgeSlots) (changed []TrussDelta) {
	type candEdge struct {
		k      int64
		fu, fv int32
		pu, pv int32
	}
	order := make([]candEdge, 0, len(cand))
	for k := range cand {
		fu, fv := int32(k>>32), int32(uint32(k))
		order = append(order, candEdge{k, fu, fv, int32(g.pos(fu, fv)), int32(g.pos(fv, fu))})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].k < order[j].k })
	// Per-slot peel state aligned with the adjacency rows: 0 = frozen at the
	// old value, 1 = live candidate, 2 = peeled candidate. Support counts are
	// meaningful in candidate slots only; both slots of an edge mirror each
	// other.
	const (
		frozen = uint8(0)
		live   = uint8(1)
		peeled = uint8(2)
	)
	total := 0
	for _, row := range g.adj {
		total += len(row)
	}
	state := make([][]uint8, len(g.adj))
	sup := make([][]int32, len(g.adj))
	stSlab := make([]uint8, total)
	supSlab := make([]int32, total)
	for x := range g.adj {
		n := len(g.adj[x])
		state[x], stSlab = stSlab[:n:n], stSlab[n:]
		sup[x], supSlab = supSlab[:n:n], supSlab[n:]
	}
	for _, ce := range order {
		state[ce.fu][ce.pu] = live
		state[ce.fv][ce.pv] = live
	}
	newVal := make(map[int64]int, len(cand))
	stage := 2
	for remaining := len(order); remaining > 0; stage++ {
		floor := int32(stage + 1)
		present := func(x int32, i int) bool {
			if st := state[x][i]; st != frozen {
				return st == live
			}
			return es.tau[x][i] >= floor
		}
		var queue []candEdge
		for _, ce := range order {
			if state[ce.fu][ce.pu] != live {
				continue
			}
			s := int32(0)
			fa, fb := g.adj[ce.fu], g.adj[ce.fv]
			i, j := 0, 0
			for i < len(fa) && j < len(fb) {
				switch {
				case fa[i] < fb[j]:
					i++
				case fa[i] > fb[j]:
					j++
				default:
					if present(ce.fu, i) && present(ce.fv, j) {
						s++
					}
					i++
					j++
				}
			}
			sup[ce.fu][ce.pu], sup[ce.fv][ce.pv] = s, s
			if s <= int32(stage-2) {
				queue = append(queue, ce)
			}
		}
		for len(queue) > 0 {
			ce := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if state[ce.fu][ce.pu] != live {
				continue
			}
			state[ce.fu][ce.pu], state[ce.fv][ce.pv] = peeled, peeled
			newVal[ce.k] = stage
			remaining--
			fa, fb := g.adj[ce.fu], g.adj[ce.fv]
			i, j := 0, 0
			for i < len(fa) && j < len(fb) {
				switch {
				case fa[i] < fb[j]:
					i++
				case fa[i] > fb[j]:
					j++
				default:
					if present(ce.fu, i) && present(ce.fv, j) {
						w := fa[i]
						for _, h := range [2]struct {
							x int32
							p int
						}{{ce.fu, i}, {ce.fv, j}} {
							if state[h.x][h.p] != live {
								continue
							}
							tw := g.pos(w, h.x)
							sup[h.x][h.p]--
							sup[w][tw] = sup[h.x][h.p]
							if sup[h.x][h.p] <= int32(stage-2) {
								queue = append(queue, candEdge{edgeKey(h.x, w), h.x, w, int32(h.p), int32(tw)})
							}
						}
					}
					i++
					j++
				}
			}
		}
	}
	for k, nv := range newVal {
		old, had := truss[k]
		if !had || old != nv {
			changed = append(changed, TrussDelta{Key: k, Old: old, Existed: had})
		}
		truss[k] = nv
	}
	return changed
}

// IncrementalTrussInsert updates truss (computed on the graph without the
// edge) in place after the edge (u,v) was inserted; g must already contain
// the edge. The new edge's truss number is computed from scratch within the
// re-peel. It returns a delta per edge whose truss number changed or
// appeared, carrying the old value so the batch can be rolled back.
func (g *Graph) IncrementalTrussInsert(truss map[int64]int, u, v int32) (changed []TrussDelta) {
	es := g.newEdgeSlots(truss, u, v, true)
	cand := g.trussCandidates(truss, u, v, true, es)
	return g.trussRepeel(truss, cand, es)
}

// IncrementalTrussDelete updates truss (computed on the graph with the
// edge) in place after the edge (u,v) was deleted; g must no longer contain
// the edge. The removed edge's entry is deleted from truss. It returns a
// delta per edge whose truss number changed — including the removed edge
// itself, whose delta records the dropped entry.
func (g *Graph) IncrementalTrussDelete(truss map[int64]int, u, v int32) (changed []TrussDelta) {
	es := g.newEdgeSlots(truss, u, v, false)
	cand := g.trussCandidates(truss, u, v, false, es)
	k := edgeKey(u, v)
	delete(cand, k)
	removed := TrussDelta{Key: k, Old: truss[k], Existed: true}
	delete(truss, k)
	return append(g.trussRepeel(truss, cand, es), removed)
}

// EdgeKeyEndpoints returns the endpoints of a truss map key, the smaller
// first.
func EdgeKeyEndpoints(k int64) (u, v int32) { return int32(k >> 32), int32(uint32(k)) }
