package roadsocial_test

import (
	"math/rand"
	"testing"

	"roadsocial"
	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
)

// Ablation benchmarks: each measures one design choice against its
// alternative on the same generated network (2,200 users on a 55×55 road
// grid). They cover the G-tree range-query index against plain bounded
// Dijkstra (with the index's one-time build measured apart), local search
// with and without seeded candidates, the two expansion strategies (Eq. 3
// vs Eq. 4), global against local search, and the single-weight-vector
// oracle. The arrangement's LP-avoidance fast path is exercised indirectly
// through the global engine.

func ablationNetwork(b *testing.B) (*roadsocial.Network, []int32) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	net, err := gen.Network(gen.NetworkConfig{
		Social: gen.SocialConfig{
			N: 2200, D: 3, AttachEdges: 4,
			Communities: 7, CommunitySize: 70, CommunityP: 0.6,
		},
		RoadRows: 55, RoadCols: 55,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	queries := gen.Queries(net, 8, 3200, 4, 1, rng)
	if len(queries) == 0 {
		b.Skip("no feasible query for ablation seed")
	}
	return net, queries[0]
}

func ablationQuery(q []int32) *roadsocial.Query {
	region, err := roadsocial.NewRegion([]float64{0.25, 0.3}, []float64{0.27, 0.32})
	if err != nil {
		panic(err)
	}
	return &roadsocial.Query{Q: q, K: 8, T: 3200, Region: region, J: 1}
}

// BenchmarkAblationRangeQueryDijkstra measures the Lemma 1 filter with the
// plain per-query Dijkstra oracle.
func BenchmarkAblationRangeQueryDijkstra(b *testing.B) {
	net, q := ablationNetwork(b)
	queryLocs := make([]road.Location, len(q))
	for i, v := range q {
		queryLocs[i] = net.Locs[v]
	}
	oracle := road.RangeQuerier{G: net.Road}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.QueryDistances(queryLocs, net.Locs, 3200)
	}
}

// BenchmarkAblationRangeQueryGTree measures the same filter through the
// G-tree index (build cost excluded — it is a one-time index).
func BenchmarkAblationRangeQueryGTree(b *testing.B) {
	net, q := ablationNetwork(b)
	queryLocs := make([]road.Location, len(q))
	for i, v := range q {
		queryLocs[i] = net.Locs[v]
	}
	gt := road.BuildGTree(net.Road, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gt.QueryDistances(queryLocs, net.Locs, 3200)
	}
}

// BenchmarkAblationGTreeBuild measures the index construction itself.
func BenchmarkAblationGTreeBuild(b *testing.B) {
	net, _ := ablationNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		road.BuildGTree(net.Road, 0)
	}
}

// BenchmarkAblationLSWithSeeds / WithoutSeeds quantify the seeded-candidate
// extension of local search.
func BenchmarkAblationLSWithSeeds(b *testing.B) {
	net, q := ablationNetwork(b)
	query := ablationQuery(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roadsocial.LocalSearch(net, query, roadsocial.LocalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLSWithoutSeeds(b *testing.B) {
	net, q := ablationNetwork(b)
	query := ablationQuery(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roadsocial.LocalSearch(net, query, roadsocial.LocalOptions{NoSeeds: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExpandDensity / MinDegree compare the two candidate
// selection strategies of Section VI-A (Eq. 3 vs Eq. 4).
func BenchmarkAblationExpandDensity(b *testing.B) {
	net, q := ablationNetwork(b)
	query := ablationQuery(q)
	opts := roadsocial.LocalOptions{Expand: mac.ExpandOptions{Strategy: mac.StrategyDensity}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roadsocial.LocalSearch(net, query, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExpandMinDegree(b *testing.B) {
	net, q := ablationNetwork(b)
	query := ablationQuery(q)
	opts := roadsocial.LocalOptions{Expand: mac.ExpandOptions{Strategy: mac.StrategyMinDegree}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roadsocial.LocalSearch(net, query, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGlobalVsLocal pits the two search algorithms on the same
// workload (the headline result of the paper).
func BenchmarkAblationGlobalVsLocal(b *testing.B) {
	net, q := ablationNetwork(b)
	query := ablationQuery(q)
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := roadsocial.GlobalSearch(net, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := roadsocial.LocalSearch(net, query, roadsocial.LocalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBruteForcePoint measures the single-weight-vector oracle
// (what a user pays for one exact answer without region support).
func BenchmarkAblationBruteForcePoint(b *testing.B) {
	net, q := ablationNetwork(b)
	query := ablationQuery(q)
	w := query.Region.Pivot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roadsocial.BruteForceAt(net, query, w); err != nil {
			b.Fatal(err)
		}
	}
}
