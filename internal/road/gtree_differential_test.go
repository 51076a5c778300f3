package road_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"roadsocial/internal/dataset"
	"roadsocial/internal/exp"
	"roadsocial/internal/road"
)

// TestGTreeMatchesDijkstraAtBenchmarkShape checks the G-tree against the
// bounded-Dijkstra oracle on SF+Slashdot's road grid at tiny and small, the
// network the service benchmark queries. The index is checked freshly
// built and read back from a snapshot file through the mmap path. Query
// sets of 1 and 8 locations are drawn from 100 sources, half on vertices
// and half inside edges; the users are the dataset's own plus edge-located
// ones. Every bound must give the same in-range set, and the same distance
// within 1e-9 inside it.
func TestGTreeMatchesDijkstraAtBenchmarkShape(t *testing.T) {
	spec, err := exp.DatasetByName("SF+Slashdot")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []exp.Scale{exp.Tiny, exp.Small} {
		in, err := spec.Build(scale, exp.DefaultD, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := in.Net.Road
		in.Net.Oracle = road.BuildGTree(g, 0)
		path := filepath.Join(t.TempDir(), "net.snap")
		if err := dataset.WriteSnapshotFile(path, in.Net); err != nil {
			t.Fatal(err)
		}
		loaded, err := dataset.ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(scale) + 5))
		edgeLoc := edgeLocations(t, g, rng)
		var sources []road.Location
		for i := 0; i < 50; i++ {
			sources = append(sources, road.VertexLocation(rng.Intn(g.N())), edgeLoc())
		}
		users := append([]road.Location(nil), in.Net.Locs...)
		for i := 0; i < 200; i++ {
			users = append(users, edgeLoc())
		}
		var querySets [][]road.Location
		for _, s := range sources {
			querySets = append(querySets, []road.Location{s})
		}
		for i := 0; i+8 <= len(sources); i += 8 {
			querySets = append(querySets, sources[i:i+8])
		}

		ref := road.RangeQuerier{G: g}
		bounds := []float64{0, in.TDefault / 2, in.TDefault, math.Inf(1)}
		for name, oracle := range map[string]road.Oracle{"built": in.Net.Oracle, "mmap": loaded.Oracle} {
			if _, ok := oracle.(*road.GTree); !ok {
				t.Fatalf("%s oracle is %T, want *road.GTree", name, oracle)
			}
			for _, bound := range bounds {
				for qi, qs := range querySets {
					want, err := ref.QueryDistances(qs, users, bound)
					if err != nil {
						t.Fatal(err)
					}
					got, err := oracle.QueryDistances(qs, users, bound)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("scale %d, %s tree, bound %g, query set %d (%d locations)", scale, name, bound, qi, len(qs))
					for i := range users {
						if (got[i] <= bound) != (want[i] <= bound) {
							t.Fatalf("%s: user %d at %+v: G-tree %g, Dijkstra %g", where, i, users[i], got[i], want[i])
						}
						if want[i] <= bound && math.Abs(got[i]-want[i]) > 1e-9 {
							t.Fatalf("%s: user %d: G-tree %g, Dijkstra %g", where, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// edgeLocations returns a generator of uniformly drawn edge-interior
// locations of g.
func edgeLocations(t *testing.T, g *road.Graph, rng *rand.Rand) func() road.Location {
	t.Helper()
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	g.Edges(func(u, v int, w float64) { edges = append(edges, edge{u, v, w}) })
	return func() road.Location {
		e := edges[rng.Intn(len(edges))]
		loc, err := g.EdgeLocation(e.u, e.v, e.w*(0.05+0.9*rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		return loc
	}
}
