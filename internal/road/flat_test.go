package road

import (
	"math/rand"
	"testing"
)

// TestGTreeFlatRoundTrip: a G-tree flattened to the snapshot's arrays and
// rebuilt over them answers range queries bit-identically to the original
// — same distances, same pruning — because every border matrix travels as
// raw float bits.
func TestGTreeFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewGraph(200)
	// Random connected-ish graph: a ring plus chords.
	for i := 0; i < 200; i++ {
		if err := g.AddEdge(i, (i+1)%200, 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		u, v := rng.Intn(200), rng.Intn(200)
		if u == v {
			continue
		}
		if _, dup := g.EdgeWeight(u, v); dup {
			continue
		}
		if err := g.AddEdge(u, v, 1+rng.Float64()*20); err != nil {
			t.Fatal(err)
		}
	}
	gt := BuildGTree(g, 16)
	gt2, err := GTreeFromFlat(g, FlattenGTree(gt))
	if err != nil {
		t.Fatal(err)
	}

	queries := []Location{VertexLocation(3), VertexLocation(77)}
	users := make([]Location, 0, 64)
	for i := 0; i < 64; i++ {
		users = append(users, VertexLocation(rng.Intn(200)))
	}
	for _, bound := range []float64{5, 25, 120} {
		want, err := gt.QueryDistances(queries, users, bound)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gt2.QueryDistances(queries, users, bound)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("bound %g, user %d: distance %g vs %g", bound, i, got[i], want[i])
			}
		}
	}
}

// TestGTreeFromFlatWrongGraph: binding an index to a graph of a different
// size is refused instead of corrupting queries.
func TestGTreeFromFlatWrongGraph(t *testing.T) {
	g := NewGraph(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	gt := BuildGTree(g, 4)
	if _, err := GTreeFromFlat(NewGraph(11), FlattenGTree(gt)); err == nil {
		t.Fatal("index bound to a mismatched graph")
	}
}

// TestGTreeFromFlatInconsistentTopology: a range query moves distances
// between a node and its parent by position and starts its ascend at a
// leaf, so a flat tree whose leaf table names an internal node, or whose
// children lists disagree with its parent links, is refused.
func TestGTreeFromFlatInconsistentTopology(t *testing.T) {
	const n = 40
	g := chainGraph(t, n)
	gt := BuildGTree(g, 4)
	if len(gt.nodes) < 3 || gt.nodes[2].parent != 1 || gt.nodes[0].children[0] != 1 {
		t.Fatalf("unexpected tree shape: %d nodes", len(gt.nodes))
	}
	f := FlattenGTree(gt)
	if _, err := GTreeFromFlat(g, f); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(i32 []int32){
		// The leaf table comes first in the I32 slab.
		"leaf table names the root": func(i32 []int32) { i32[0] = 0 },
		// The root's children follow it; node 2 is node 1's child.
		"root lists a grandchild": func(i32 []int32) { i32[n+1] = 2 },
	} {
		bad := f
		bad.I32 = append([]int32(nil), f.I32...)
		edit(bad.I32)
		if _, err := GTreeFromFlat(g, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
