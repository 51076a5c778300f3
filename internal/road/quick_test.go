package road

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: network distance is symmetric and satisfies the triangle
// inequality on random connected graphs.
func TestQuickMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g := randomConnectedGraph(rng, n)
		a := rng.Intn(n)
		b := rng.Intn(n)
		c := rng.Intn(n)
		da := g.DistancesFrom(VertexLocation(a), math.Inf(1))
		db := g.DistancesFrom(VertexLocation(b), math.Inf(1))
		// Symmetry.
		if math.Abs(da[b]-db[a]) > 1e-9 {
			return false
		}
		// Triangle inequality via a and b.
		if da[c] > da[b]+db[c]+1e-9 {
			return false
		}
		// Identity.
		return da[a] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: bounded Dijkstra agrees with unbounded Dijkstra below the bound
// and reports Inf above it.
func TestQuickBoundedAgreesWithUnbounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g := randomConnectedGraph(rng, n)
		src := rng.Intn(n)
		bound := rng.Float64() * 30
		full := g.DistancesFrom(VertexLocation(src), math.Inf(1))
		bounded := g.DistancesFrom(VertexLocation(src), bound)
		for v := 0; v < n; v++ {
			if full[v] <= bound {
				if bounded[v] != full[v] {
					return false
				}
			} else if !math.IsInf(bounded[v], 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the G-tree oracle is exchangeable with the plain oracle on
// arbitrary query/user location mixes: vertex- and edge-located users, and
// vertex- and edge-located query sources (an edge-located source takes the
// G-tree's Dijkstra fallback). Each edge-located source also gets a user on
// its own edge, drawn in the reverse orientation, so the along-the-edge
// shortcut is exercised too.
func TestQuickGTreeExchangeable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := randomConnectedGraph(rng, n)
		gt := BuildGTree(g, 4+rng.Intn(12))
		var edges [][2]int
		g.Edges(func(u, v int, _ float64) { edges = append(edges, [2]int{u, v}) })
		onEdge := func(u, v int) Location {
			w, _ := g.EdgeWeight(u, v)
			loc, err := g.EdgeLocation(u, v, w*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			return loc
		}
		var queries, users []Location
		for i := 0; i < 1+rng.Intn(3); i++ {
			if rng.Intn(2) == 0 {
				queries = append(queries, VertexLocation(rng.Intn(n)))
				continue
			}
			e := edges[rng.Intn(len(edges))]
			queries = append(queries, onEdge(e[0], e[1]))
			users = append(users, onEdge(e[1], e[0]))
		}
		for i := 0; i < 10; i++ {
			if rng.Intn(2) == 0 {
				users = append(users, VertexLocation(rng.Intn(n)))
				continue
			}
			e := edges[rng.Intn(len(edges))]
			users = append(users, onEdge(e[0], e[1]))
		}
		bound := 5 + rng.Float64()*15
		a, errA := gt.QueryDistances(queries, users, bound)
		b, errB := RangeQuerier{G: g}.QueryDistances(queries, users, bound)
		if errA != nil || errB != nil {
			return false
		}
		for i := range users {
			if b[i] <= bound {
				if math.Abs(a[i]-b[i]) > 1e-9 {
					return false
				}
			} else if a[i] <= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
