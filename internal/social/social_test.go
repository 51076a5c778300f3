package social

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildGraph is a test helper constructing a graph from an edge list.
func buildGraph(t *testing.T, n, d int, edges [][2]int) *Graph {
	t.Helper()
	b := NewBuilder(n, d)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderDedupAndValidation(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop: ignored
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after dedup", g.M())
	}
	if g.Degree(2) != 0 {
		t.Fatal("self-loop must be ignored")
	}
	b2 := NewBuilder(2, 1)
	b2.AddEdge(0, 5)
	if _, err := b2.Build(); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	b3 := NewBuilder(2, 2)
	b3.SetAttrs(0, []float64{1})
	if _, err := b3.Build(); err == nil {
		t.Fatal("wrong attribute dimension must fail")
	}
}

func TestCoreDecompositionTrianglePlusTail(t *testing.T) {
	// Triangle 0-1-2 with a tail 2-3: cores (2,2,2,1).
	g := buildGraph(t, 4, 1, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	core, kmax := g.CoreDecomposition(nil)
	want := []int{2, 2, 2, 1}
	for v, w := range want {
		if core[v] != w {
			t.Fatalf("core[%d] = %d, want %d (all: %v)", v, core[v], w, core)
		}
	}
	if kmax != 2 {
		t.Fatalf("kmax = %d, want 2", kmax)
	}
}

// naiveCoreness peels the graph by brute force for cross-checking.
func naiveCoreness(g *Graph, allowed []bool) []int {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = allowed == nil || allowed[v]
	}
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				deg[v]++
			}
		}
	}
	core := make([]int, n)
	for v := range core {
		core[v] = -1
	}
	remaining := 0
	for _, a := range alive {
		if a {
			remaining++
		}
	}
	k := 0
	for remaining > 0 {
		progress := true
		for progress {
			progress = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= k {
					core[v] = k
					alive[v] = false
					remaining--
					for _, w := range g.Neighbors(v) {
						if alive[w] {
							deg[w]--
						}
					}
					progress = true
				}
			}
		}
		k++
	}
	return core
}

func TestCoreDecompositionAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		b := NewBuilder(n, 1)
		m := rng.Intn(n * 3)
		for e := 0; e < m; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var allowed []bool
		if trial%3 == 0 {
			allowed = make([]bool, n)
			for v := range allowed {
				allowed[v] = rng.Float64() < 0.7
			}
		}
		got, _ := g.CoreDecomposition(allowed)
		want := naiveCoreness(g, allowed)
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("trial %d: core[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
	}
}

func TestCorenessUpperBound(t *testing.T) {
	// A k-core on k+1 vertices (clique) has m = k(k+1)/2; the bound must not
	// reject its own k.
	for k := 1; k <= 10; k++ {
		n := k + 1
		m := k * (k + 1) / 2
		if got := CorenessUpperBound(n, m); got < k {
			t.Fatalf("bound %d rejects clique with kmax %d", got, k)
		}
	}
	if CorenessUpperBound(10, 0) != 0 {
		t.Fatal("empty graph must bound to 0")
	}
}

func TestMaximalConnectedKCore(t *testing.T) {
	// Two triangles (0,1,2) and (3,4,5) joined by a path through vertex 6:
	// 2-6, 6-3. Vertex 6 has degree 2 but peels out of the 2-core? No — its
	// degree stays 2, so the whole graph is a connected 2-core; instead use
	// a degree-1 tail to separate them: 2-6 only.
	g := buildGraph(t, 7, 1, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 6}, {6, 3}})
	// Vertex 6 survives the 2-core (degree 2), joining the triangles.
	if got := g.MaximalConnectedKCore([]int32{0, 4}, 2, nil); len(got) != 7 {
		t.Fatalf("2-core with path vertex = %v, want all 7", got)
	}
	// Drop the 6-3 edge: now 6 is degree 1, peels, and the triangles are
	// separate 2-core components.
	g = buildGraph(t, 7, 1, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 6}})
	comp := g.MaximalConnectedKCore([]int32{0}, 2, nil)
	if len(comp) != 3 {
		t.Fatalf("2-core component of 0 has %d vertices, want 3 (%v)", len(comp), comp)
	}
	// Q spanning both triangles: they are in different 2-core components.
	if got := g.MaximalConnectedKCore([]int32{0, 4}, 2, nil); got != nil {
		t.Fatalf("expected nil for cross-component query, got %v", got)
	}
	if got := g.MaximalConnectedKCore([]int32{0}, 3, nil); got != nil {
		t.Fatalf("no 3-core exists, got %v", got)
	}
}

func TestSubDeleteCascadeAndRollback(t *testing.T) {
	// 4-clique {0,1,2,3} plus pendant path 3-4-5.
	g := buildGraph(t, 6, 1, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5},
	})
	sub := NewSub(g, []int32{0, 1, 2, 3, 4, 5})
	q := []int32{0}

	// Deleting 5 with k=1 removes just 5 (4 keeps degree 1 via 3).
	batch, ok := sub.TryDeleteCascade(5, 1, q)
	if !ok || len(batch) != 1 {
		t.Fatalf("delete 5: ok=%v batch=%v", ok, batch)
	}
	if sub.Alive(5) || !sub.Alive(4) {
		t.Fatal("only vertex 5 should be gone")
	}
	// Deleting 4 with k=3 from the full set must cascade nothing extra but
	// keep the clique; first restore state.
	sub = NewSub(g, []int32{0, 1, 2, 3, 4, 5})
	batch, ok = sub.TryDeleteCascade(4, 3, q)
	if !ok {
		t.Fatalf("delete 4 should succeed: %v", batch)
	}
	// 5 drops to degree 0 < 3 and cascades.
	if sub.Alive(5) || sub.Alive(4) {
		t.Fatal("4 and 5 should both be gone")
	}
	if !sub.IsConnectedKCore(3, q) {
		t.Fatal("remaining clique must be a connected 3-core")
	}
	// Deleting a clique member with k=3 would destroy the core: rollback.
	before := sub.Vertices()
	if _, ok := sub.TryDeleteCascade(1, 3, q); ok {
		t.Fatal("deleting a 4-clique member at k=3 must fail")
	}
	after := sub.Vertices()
	if len(before) != len(after) {
		t.Fatalf("rollback failed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rollback failed: %v -> %v", before, after)
		}
	}
	// Degrees must also be restored.
	if sub.Degree(0) != 3 || sub.Degree(3) != 3 {
		t.Fatal("degrees not restored after rollback")
	}
}

func TestSubDisconnectedComponentDropped(t *testing.T) {
	// Two triangles joined by a single vertex 6 of degree 2 to each side.
	g := buildGraph(t, 7, 1, [][2]int{
		{0, 1}, {1, 2}, {0, 2}, // triangle A
		{3, 4}, {4, 5}, {3, 5}, // triangle B
		{6, 0}, {6, 3},
	})
	sub := NewSub(g, []int32{0, 1, 2, 3, 4, 5, 6})
	// k=1, Q={0}: deleting 6 splits off triangle B, which must be dropped.
	batch, ok := sub.TryDeleteCascade(6, 1, []int32{0})
	if !ok {
		t.Fatal("expected success")
	}
	if len(batch) != 4 { // 6 plus the B triangle
		t.Fatalf("batch = %v, want {6,3,4,5}", batch)
	}
	for _, v := range []int32{3, 4, 5, 6} {
		if sub.Alive(v) {
			t.Fatalf("vertex %d should be gone", v)
		}
	}
	if !sub.IsConnectedKCore(1, []int32{0}) {
		t.Fatal("triangle A must remain a connected 1-core")
	}
}

// Property: TryDeleteCascade either leaves a connected k-core containing Q,
// or restores the exact previous state.
func TestQuickCascadeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		b := NewBuilder(n, 1)
		for e := 0; e < n*2; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3)
		comp := g.MaximalConnectedKCore([]int32{int32(rng.Intn(n))}, k, nil)
		if comp == nil {
			return true // vacuous
		}
		q := []int32{comp[rng.Intn(len(comp))]}
		sub := NewSub(g, comp)
		if !sub.IsConnectedKCore(k, q) {
			return false
		}
		for step := 0; step < 5; step++ {
			target := comp[rng.Intn(len(comp))]
			prevSize := sub.Size()
			prevAlive := sub.Alive(target)
			if _, ok := sub.TryDeleteCascade(target, k, q); ok {
				if prevAlive && sub.Alive(target) {
					return false
				}
				if !sub.IsConnectedKCore(k, q) {
					return false
				}
			} else if sub.Size() != prevSize {
				return false // failed delete must not change the subgraph
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// plantedCutGraph builds dense blocks of k+2 to k+5 vertices (cliques minus
// a few edges) and links each later block to an earlier one through a hub
// vertex with k neighbours in both, so that deleting a hub cuts a block
// that is still a k-core off the rest. A few noise edges between blocks
// make some hubs redundant. It returns the graph and its hubs.
func plantedCutGraph(t *testing.T, rng *rand.Rand, k int) (*Graph, []int32) {
	t.Helper()
	var blocks [][]int
	n := 0
	for range 2 + rng.Intn(4) {
		size := k + 2 + rng.Intn(4)
		block := make([]int, size)
		for i := range block {
			block[i] = n
			n++
		}
		blocks = append(blocks, block)
	}
	b := NewBuilder(n+len(blocks)-1, 1)
	var hubs []int32
	for _, block := range blocks {
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				if rng.Float64() < 0.9 {
					b.AddEdge(block[i], block[j])
				}
			}
		}
	}
	for i := 1; i < len(blocks); i++ {
		hub := n + i - 1
		hubs = append(hubs, int32(hub))
		for _, side := range [][]int{blocks[i], blocks[rng.Intn(i)]} {
			for _, j := range rng.Perm(len(side))[:k] {
				b.AddEdge(hub, side[j])
			}
		}
	}
	for range rng.Intn(3) {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, hubs
}

// TestCascadeMatchesMaximalConnectedKCore pins TryDeleteCascade to its
// definition: after deleting u from a connected k-core containing Q, the
// alive set is MaximalConnectedKCore(q, k, alive−u), and ok is false
// exactly when that is nil (the subgraph then stays as it was). The
// planted cut vertices make the walk finish and drop cut-off components.
func TestCascadeMatchesMaximalConnectedKCore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dropped := 0
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(2)
		g, hubs := plantedCutGraph(t, rng, k)
		q := []int32{int32(rng.Intn(g.N()))}
		if rng.Intn(2) == 0 {
			q = append(q, int32(rng.Intn(g.N())))
		}
		comp := g.MaximalConnectedKCore(q, k, nil)
		if comp == nil {
			continue
		}
		sub := NewSub(g, comp)
		for step := 0; step < 8 && sub.Size() > 0; step++ {
			var u int32
			switch alive := sub.Vertices(); {
			case rng.Intn(8) == 0:
				u = int32(rng.Intn(g.N())) // maybe dead, maybe in Q
			case rng.Intn(2) == 0:
				u = hubs[rng.Intn(len(hubs))]
			default:
				u = alive[rng.Intn(len(alive))]
			}
			before := sub.Vertices()
			allowed := make([]bool, g.N())
			for _, v := range before {
				allowed[v] = v != u
			}
			want := g.MaximalConnectedKCore(q, k, allowed)
			if want != nil {
				if core := g.MaximalKCore(k, allowed); countTrue(core) > len(want) {
					dropped++
				}
			}
			batch, ok := sub.TryDeleteCascade(u, k, q)
			if ok != (want != nil) {
				t.Fatalf("trial %d: delete %d from %v (k=%d, Q=%v): ok=%v, maximal core %v", trial, u, before, k, q, ok, want)
			}
			got := sub.Vertices()
			if !ok {
				want = before
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: delete %d from %v (k=%d, Q=%v): alive %v, want %v", trial, u, before, k, q, got, want)
			}
			gone := slices.Clone(batch)
			slices.Sort(gone)
			if wantGone := setMinus(before, got); !slices.Equal(gone, wantGone) {
				t.Fatalf("trial %d: batch %v, want the vertices %v", trial, batch, wantGone)
			}
			for _, v := range got {
				d := 0
				for _, w := range g.Neighbors(int(v)) {
					if sub.Alive(w) {
						d++
					}
				}
				if sub.Degree(v) != d {
					t.Fatalf("trial %d: degree of %d is %d, want %d", trial, v, sub.Degree(v), d)
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no deletion cut off a component that is still a k-core")
	}
	t.Logf("%d deletions cut off a k-core component", dropped)
}

func countTrue(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// setMinus returns the sorted members of a missing from b (both sorted).
func setMinus(a, b []int32) []int32 {
	var out []int32
	for _, v := range a {
		if _, found := slices.BinarySearch(b, v); !found {
			out = append(out, v)
		}
	}
	return out
}

// TestInducedMatchesBuilder pins Graph.Induced to the Builder graph over the
// same ids, for random subsets in random order: the same rows, the same M,
// and the parent's attribute vectors and labels.
func TestInducedMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(t, rng, n, rng.Float64()*0.5)
		perm := rng.Perm(n)[:rng.Intn(n+1)]
		ids := make([]int32, len(perm))
		local := make(map[int32]int, len(perm))
		for i, v := range perm {
			ids[i] = int32(v)
			local[int32(v)] = i
		}
		b := NewBuilder(len(ids), g.D())
		for i, v := range ids {
			for _, w := range g.Neighbors(int(v)) {
				if j, ok := local[w]; ok && i < j {
					b.AddEdge(i, j)
				}
			}
		}
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got := g.Induced(ids)
		if got.N() != want.N() || got.M() != want.M() || got.D() != want.D() {
			t.Fatalf("trial %d: N, M, D = %d, %d, %d, want %d, %d, %d", trial, got.N(), got.M(), got.D(), want.N(), want.M(), want.D())
		}
		for i, v := range ids {
			if !slices.Equal(got.Neighbors(i), want.Neighbors(i)) {
				t.Fatalf("trial %d: row %d is %v, want %v", trial, i, got.Neighbors(i), want.Neighbors(i))
			}
			if !slices.Equal(got.Attrs(i), g.Attrs(int(v))) || got.Label(i) != g.Label(int(v)) {
				t.Fatalf("trial %d: vertex %d does not carry %d's attributes", trial, i, v)
			}
		}
	}
}
