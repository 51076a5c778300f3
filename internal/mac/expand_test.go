package mac

import (
	"math/rand"
	"testing"

	"roadsocial/internal/bitset"
	"roadsocial/internal/social"
)

// TestExpandConnectedMatchesDFS pins expandState.connected, which a
// union-find answers, to a DFS over the community after every addition,
// with the members of H_k^t added in random order.
func TestExpandConnectedMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	outcomes := map[bool]int{}
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(2)
		net := randomNetwork(t, rng, 12+rng.Intn(30), d)
		q := randomQuery(net, rng, 2, 1, 25, randomRegion(t, rng, d), 1)
		if q == nil {
			continue
		}
		p, err := Prepare(net, q)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := p.regionSpace(q)
		if err != nil {
			t.Fatal(err)
		}
		st := newExpandState(newSearchSpace(net, rs, q, coreEngine{}))
		for _, v := range rng.Perm(rs.dag.N()) {
			st.add(int32(v))
			got, want := st.connected(), dfsConnected(rs.hg, st.in)
			if got != want {
				t.Fatalf("trial %d: after adding %d, connected() = %v, DFS says %v", trial, v, got, want)
			}
			outcomes[want]++
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("connectivity outcomes %v: both must occur", outcomes)
	}
}

// dfsConnected reports whether the vertices in in induce a connected
// subgraph of g.
func dfsConnected(g *social.Graph, in *bitset.Set) bool {
	seed := -1
	in.ForEach(func(i int) bool { seed = i; return false })
	if seed < 0 {
		return false
	}
	seen := bitset.New(g.N())
	seen.Set(seed)
	stack := []int32{int32(seed)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(int(v)) {
			if in.Test(int(w)) && !seen.Test(int(w)) {
				seen.Set(int(w))
				stack = append(stack, w)
			}
		}
	}
	return seen.Count() == in.Count()
}
