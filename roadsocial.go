// Package roadsocial is a Go implementation of multi-attributed community
// (MAC) search in road-social networks, reproducing Guo et al., "Multi-
// attributed Community Search in Road-social Networks" (ICDE 2021).
//
// A road-social network pairs a weighted road graph with a social graph
// whose users carry a road location and d numeric attributes. Given query
// users Q, a coreness threshold k, a travel-cost threshold t, and a convex
// region R of weight vectors (the user's imprecise preferences), MAC search
// partitions R and reports, per partition, the communities that
//
//   - are connected k-cores containing Q (structural cohesiveness),
//   - keep every member within road distance t of every query user
//     (spatial cohesiveness), and
//   - are not r-dominated: no competing community scores higher for any
//     weight vector in the partition, where a community's score is the
//     minimum weighted attribute sum over its members.
//
// Two algorithms are provided: GlobalSearch (the paper's DFS-based
// Algorithm 1, exact for every weight vector in R) and LocalSearch
// (Algorithms 3-5, typically an order of magnitude faster, sound but not
// guaranteed to find every non-contained MAC).
//
// # Concurrency
//
// Both search engines process independent sub-problems — search-tree
// branches, candidate verifications, per-query-location range Dijkstras —
// on Query.Parallelism worker goroutines (<= 0 selects GOMAXPROCS; 1
// forces fully sequential execution). One carve-out: a custom
// Network.Oracle — e.g. a GTree — manages its own Parallelism knob and is
// not affected by the query's. Output is canonically ordered, so results
// are byte-identical at every parallelism level. All index
// structures (SocialGraph, RoadGraph, GTree, a prepared Network) are
// immutable after construction and safe for concurrent queries from any
// number of goroutines; per-query scratch is pooled internally. Distinct
// queries against the same Network may always run concurrently.
//
// # Engines, prepared queries, and the service stack
//
// Core-based and truss-based search are two engines behind one pluggable
// contract: an Engine prepares the reusable (Q, K, T)-keyed half of a query
// family — the road-network range query plus its variant's maximal cohesive
// subgraph — and the returned Prepared handle serves any number of
// region-varying searches, caching the region-dependent r-dominance graph
// internally:
//
//	p, _ := roadsocial.Prepare(net, query)    // core engine sugar
//	res1, _ := p.GlobalSearch(query)          // pays only the search
//	res2, _ := p.LocalSearch(query2, opts)    // query2 may vary Region/J
//
//	eng, _ := roadsocial.EngineFor(roadsocial.VariantTruss)
//	pt, _ := eng.Prepare(net, query)          // same contract, truss seed
//	res3, _ := pt.Search(query, roadsocial.SearchOptions{})
//
// On top of this, internal/service and cmd/macserver provide a long-lived
// HTTP query server: a weighted LRU + single-flight cache of Prepared
// handles keyed by (dataset, variant, Q, k, t) — entries weigh their
// cohesive-subgraph size, with optional TTLs — admission control (bounded
// in-flight work with a bounded waiting queue; excess load is rejected with
// 429 instead of piling up), and per-request deadlines wired to
// Query.Cancel (504). internal/shard scales this horizontally: datasets
// partition across in-process or remote service shards by consistent
// hashing on the dataset name, with per-dataset routing and aggregated
// health/stats (cmd/macserver -shards / -peers). See examples/service for
// an end-to-end run.
//
// # Quick start
//
//	sb := roadsocial.NewSocialBuilder(4, 2) // 4 users, 2 attributes
//	sb.AddEdge(0, 1); sb.AddEdge(1, 2); sb.AddEdge(0, 2); sb.AddEdge(2, 3)
//	sb.SetAttrs(0, []float64{3, 5}) // ... one vector per user
//	gs, _ := sb.Build()
//
//	gr := roadsocial.NewRoadGraph(2)
//	gr.AddEdge(0, 1, 7.5)
//	locs := []roadsocial.Location{ /* one per user */ }
//
//	net := &roadsocial.Network{Social: gs, Road: gr, Locs: locs}
//	region, _ := roadsocial.NewRegion([]float64{0.2}, []float64{0.4})
//	res, err := roadsocial.GlobalSearch(net, &roadsocial.Query{
//	    Q: []int32{0}, K: 2, T: 10, Region: region, J: 1,
//	})
//
// See examples/ for runnable end-to-end scenarios.
package roadsocial

import (
	"roadsocial/internal/geom"
	"roadsocial/internal/mac"
	"roadsocial/internal/preflearn"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// Network bundles the social graph, road graph, user locations, and an
// optional distance oracle (see BuildGTree).
type Network = mac.Network

// Query is a MAC search request: query users Q, coreness K, distance
// threshold T, preference region, and the number J of ranked MACs per
// partition (J <= 1 requests only the non-contained MAC, Problem 2).
type Query = mac.Query

// Result is a search outcome: the maximal (k,t)-core, the output partitions
// with their communities, and effort statistics.
type Result = mac.Result

// CellResult is one partition of the preference region with its ranked MACs.
type CellResult = mac.CellResult

// Community is a sorted set of social vertex ids.
type Community = mac.Community

// Stats carries search effort counters (partitions, hyperplanes, ...).
type Stats = mac.Stats

// LocalOptions tunes LocalSearch candidate generation.
type LocalOptions = mac.LocalOptions

// ExpandOptions tunes the Expand procedure (Algorithm 4).
type ExpandOptions = mac.ExpandOptions

// Expansion strategies (Eqs. 3 and 4 of the paper).
const (
	StrategyDensity   = mac.StrategyDensity
	StrategyMinDegree = mac.StrategyMinDegree
)

// Region is a convex polytope of reduced weight vectors (dimension d-1).
type Region = geom.Region

// SocialGraph is an undirected social network with d-dim attributes.
type SocialGraph = social.Graph

// SocialBuilder accumulates social edges and attributes.
type SocialBuilder = social.Builder

// RoadGraph is an undirected weighted road network.
type RoadGraph = road.Graph

// Location is a point in the road network (a vertex, or a point on an edge).
type Location = road.Location

// GTree is the hierarchical road index accelerating range queries. It is
// immutable after BuildGTree and safe for concurrent queries.
type GTree = road.GTree

// ErrNoCommunity is returned when no (k,t)-core contains the query users.
var ErrNoCommunity = mac.ErrNoCommunity

// ErrCanceled is returned when Query.Cancel closes mid-search.
var ErrCanceled = mac.ErrCanceled

// NewSocialBuilder creates a builder for a social graph with n users and d
// numeric attributes per user.
func NewSocialBuilder(n, d int) *SocialBuilder { return social.NewBuilder(n, d) }

// NewRoadGraph creates a road network with n vertices and no segments.
func NewRoadGraph(n int) *RoadGraph { return road.NewGraph(n) }

// VertexLocation places a user exactly on road vertex v.
func VertexLocation(v int) Location { return road.VertexLocation(v) }

// NewRegion returns the axis-parallel box region [lo, hi] in the reduced
// (d-1)-dimensional preference domain. All corners must have non-negative
// coordinates summing to at most 1.
func NewRegion(lo, hi []float64) (*Region, error) { return geom.NewBox(lo, hi) }

// NewPolytopeRegion returns a general convex region: the box [lo,hi]
// intersected with extra halfspaces (A·w <= B), with the polytope corners
// supplied by the caller.
func NewPolytopeRegion(lo, hi []float64, a [][]float64, b []float64, corners [][]float64) (*Region, error) {
	hs := make([]geom.Halfspace, len(a))
	for i := range a {
		hs[i] = geom.Halfspace{A: a[i], B: b[i]}
	}
	return geom.NewPolytope(lo, hi, hs, corners)
}

// GlobalSearch runs the exact DFS-based algorithm (GS-T for Query.J > 1,
// GS-NC otherwise). The output cells partition the region; each cell's
// ranked communities are valid for every weight vector inside it.
func GlobalSearch(net *Network, q *Query) (*Result, error) { return mac.GlobalSearch(net, q) }

// Prepared is the reusable prepared state of a MAC query family (Q, K, T):
// the engine's maximal cohesive subgraph — the (k,t)-core for the core
// engine, the maximal k-truss for the truss engine — plus an internal cache
// of region-dependent state (r-dominance graph and, for the core engine,
// the localized community graph). Preparing once and searching many times
// amortizes the road-network range query that dominates small-query
// latency; a Prepared is safe for concurrent searches from any number of
// goroutines.
type Prepared = mac.Prepared

// Engine is the pluggable search-engine contract: each structural-
// cohesiveness variant (core, truss) prepares (Q, K, T)-keyed state once
// and serves any number of region-varying searches from it. Obtain one with
// EngineFor; the service tier drives both variants exclusively through this
// interface.
type Engine = mac.Engine

// Variant names a structural-cohesiveness criterion.
type Variant = mac.Variant

// Built-in engine variants.
const (
	VariantCore  = mac.VariantCore
	VariantTruss = mac.VariantTruss
)

// SearchOptions parameterizes Prepared.Search; the zero value selects the
// exact global search.
type SearchOptions = mac.SearchOptions

// Search modes for SearchOptions.
const (
	ModeGlobal = mac.ModeGlobal
	ModeLocal  = mac.ModeLocal
)

// EngineFor returns the engine implementing a variant.
func EngineFor(v Variant) (Engine, error) { return mac.EngineFor(v) }

// Prepare computes the core engine's prepared state for the query's
// (Q, K, T) family. Subsequent p.Search / p.GlobalSearch / p.LocalSearch
// calls may vary Region, J, Parallelism, and Cancel freely but must keep
// Q, K, and T. The long-lived query service (internal/service,
// cmd/macserver) caches Prepared handles keyed by (dataset, variant,
// Q, k, t).
func Prepare(net *Network, q *Query) (*Prepared, error) { return mac.Prepare(net, q) }

// PrepareTruss computes the truss engine's prepared state, under the same
// contract as Prepare.
func PrepareTruss(net *Network, q *Query) (*Prepared, error) { return mac.PrepareTruss(net, q) }

// LocalSearch runs the local search framework (LS-T / LS-NC): typically an
// order of magnitude faster than GlobalSearch, sound (every reported cell
// is correct) but not guaranteed complete.
func LocalSearch(net *Network, q *Query, opts LocalOptions) (*Result, error) {
	return mac.LocalSearch(net, q, opts)
}

// KTCore computes the vertex set of the maximal (k,t)-core for Q — the
// candidate space both searches operate in (Lemmas 1-3 of the paper).
func KTCore(net *Network, q []int32, k int, t float64) ([]int32, error) {
	return mac.KTCore(net, q, k, t)
}

// BruteForceAt computes the top-j MAC list for one exact weight vector by
// direct simulation — the reference oracle, O(n'^2) per weight vector.
func BruteForceAt(net *Network, q *Query, w []float64) ([]Community, error) {
	return mac.BruteForceAt(net, q, w)
}

// CommunityScore evaluates S(H) = min over members of the weighted
// attribute sum at reduced weight vector w.
func CommunityScore(net *Network, h Community, w []float64) float64 {
	return mac.CommunityScore(net, h, w)
}

// BuildGTree builds the G-tree style road index; assign it to Network.Oracle
// to accelerate repeated range queries. maxLeaf <= 0 selects the default.
func BuildGTree(g *RoadGraph, maxLeaf int) *GTree { return road.BuildGTree(g, maxLeaf) }

// GlobalSearchTruss is the k-truss variant of the exact search: communities
// are connected k-trusses (every edge in at least k-2 triangles) containing
// Q, implementing the paper's remark that the MAC techniques apply to
// cohesiveness criteria beyond k-core.
func GlobalSearchTruss(net *Network, q *Query) (*Result, error) {
	return mac.GlobalSearchTruss(net, q)
}

// Comparison records one observed pairwise preference (attribute vectors of
// the preferred and the rejected item), used to learn a region.
type Comparison = preflearn.Comparison

// ErrInconsistent reports that observed comparisons admit no weight vector.
var ErrInconsistent = preflearn.ErrInconsistent

// LearnRegion derives the preference region R from pairwise choices: each
// observation constrains the weights to the halfspace where the preferred
// item scores at least as high, and R is the intersection with the weight
// simplex — the preference-learning input the paper assumes (footnote 1).
// margin demands each preference hold by at least that score difference.
func LearnRegion(d int, comparisons []Comparison, margin float64) (*Region, error) {
	return preflearn.Learn(d, comparisons, margin)
}
