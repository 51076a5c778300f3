// Package mac implements the paper's primary contribution: multi-attributed
// community (MAC) search in road-social networks. It provides the maximal
// (k,t)-core computation (Section III), the DFS-based global search of
// Algorithm 1 (GS-T / GS-NC), and the local search framework of Algorithms
// 3-5 (LS-T / LS-NC) with the Expand and Verify procedures.
package mac

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"roadsocial/internal/domgraph"
	"roadsocial/internal/geom"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// Network bundles the two graphs of a road-social network together with the
// user→location mapping L and the distance oracle used for range queries.
type Network struct {
	Social *social.Graph
	Road   *road.Graph
	// Locs maps each social vertex to its location in the road network.
	Locs []road.Location
	// Oracle answers range queries; nil defaults to plain Dijkstra.
	Oracle road.Oracle
}

// Validate checks structural consistency.
func (n *Network) Validate() error {
	if n.Social == nil || n.Road == nil {
		return errors.New("mac: network requires both social and road graphs")
	}
	if len(n.Locs) != n.Social.N() {
		return fmt.Errorf("mac: %d locations for %d social vertices", len(n.Locs), n.Social.N())
	}
	return nil
}

// oracle returns the distance oracle, threading the query's parallelism
// and cancellation into the built-in RangeQuerier. A user-supplied Oracle
// manages its own parallelism knob (e.g. GTree.Parallelism); when it is
// Cancelable (GTree is), the query's cancel channel is bound through a
// per-query view, so index-accelerated range queries abort mid-traversal
// like the built-in Dijkstras do.
func (n *Network) oracle(parallelism int, cancel <-chan struct{}) road.Oracle {
	if n.Oracle != nil {
		if c, ok := n.Oracle.(road.Cancelable); ok {
			return c.WithCancel(cancel)
		}
		return n.Oracle
	}
	return road.RangeQuerier{G: n.Road, Parallelism: parallelism, Cancel: cancel}
}

// Query is a MAC search request.
type Query struct {
	// Q are the query vertices (social ids). Must be non-empty.
	Q []int32
	// K is the coreness threshold (k >= 1).
	K int
	// T is the query-distance threshold in road-network cost units.
	T float64
	// Region is the preference region R. Its dimension must be d-1 where d
	// is the attribute dimensionality of the social graph.
	Region *geom.Region
	// J is the number of top MACs per partition (Problem 1). J <= 1 asks for
	// the non-contained MAC only (Problem 2).
	J int
	// Parallelism is the number of worker goroutines the search engines use
	// for independent sub-problems (search-tree branches, candidate
	// verification, and — for the built-in range-filter oracle —
	// per-query-location Dijkstras). <= 0 selects GOMAXPROCS; 1 forces
	// fully sequential execution. A custom Network.Oracle manages its own
	// parallelism knob. Results are canonically ordered and identical for
	// every parallelism level.
	Parallelism int
	// Cancel, when non-nil, lets the caller abandon a running search: once
	// the channel is closed, every worker stops at its next task or phase
	// boundary (one in-flight Dijkstra, cascade, or DAG build still
	// completes first) and the search returns ErrCanceled. Without it, an
	// abandoned search (e.g. after a caller-side timeout) would keep
	// burning Parallelism cores until it finishes on its own.
	Cancel <-chan struct{}
}

// Validate checks the query against the network.
func (q *Query) Validate(n *Network) error {
	if len(q.Q) == 0 {
		return errors.New("mac: empty query vertex set")
	}
	for _, v := range q.Q {
		if v < 0 || int(v) >= n.Social.N() {
			return fmt.Errorf("mac: query vertex %d out of range", v)
		}
	}
	if q.K < 1 {
		return fmt.Errorf("mac: coreness threshold k=%d must be >= 1", q.K)
	}
	if q.T < 0 {
		return fmt.Errorf("mac: query distance threshold t=%g must be >= 0", q.T)
	}
	if q.Region == nil {
		return errors.New("mac: nil preference region")
	}
	if got, want := q.Region.Dim(), n.Social.D()-1; got != want {
		return fmt.Errorf("mac: region dimension %d, want d-1 = %d", got, want)
	}
	// Weights must be non-negative with sum <= 1 so that the implied last
	// weight w_d is non-negative; score monotonicity (used for R-tree
	// pruning) depends on it.
	for _, c := range q.Region.Corners() {
		sum := 0.0
		for _, w := range c {
			if w < -geom.Eps {
				return fmt.Errorf("mac: region corner %v has negative weight", c)
			}
			sum += w
		}
		if sum > 1+geom.Eps {
			return fmt.Errorf("mac: region corner %v has weight sum %g > 1", c, sum)
		}
	}
	return nil
}

// Community is a vertex set (social ids, sorted ascending).
type Community []int32

// Key returns a canonical string key for set comparison in maps.
func (c Community) Key() string {
	b := make([]byte, 0, len(c)*4)
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// Contains reports whether v is a member (binary search).
func (c Community) Contains(v int32) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= v })
	return i < len(c) && c[i] == v
}

// CellResult associates one partition of R with its communities: Ranked[0]
// is the non-contained MAC of the partition, Ranked[i] the (i+1)-th ranked
// MAC (each containing the previous).
type CellResult struct {
	Cell   *geom.Cell
	Ranked []Community
}

// NCMAC returns the non-contained MAC of the partition.
func (cr CellResult) NCMAC() Community { return cr.Ranked[0] }

// Stats records search effort counters reported by the experiments. Both
// variants fill the size, edge, arc and partition counters and, through the
// shared Algorithm 1 DFS, Hyperplanes, CellsExplored and Deletions. The
// local-search counters (Candidates, Promising, CascadeSims) are core-only
// because local search is.
type Stats struct {
	KTCoreSize    int // |V(H_k^t)|, or the maximal k-truss's size
	KTCoreEdges   int // edges of the localized graph over those members
	DomGraphArcs  int
	Partitions    int // number of output partitions of R
	Hyperplanes   int // distinct hyperplanes inserted into arrangements
	CellsExplored int // arrangement leaf cells visited during search
	Deletions     int // vertices deleted across all branches (global search)
	Candidates    int // communities generated by Expand (local search)
	Promising     int // candidates passing Corollary 2
	CascadeSims   int // structural cascade simulations (Verify)
}

// Result is the outcome of a MAC search.
type Result struct {
	// KTCore is the vertex set of the maximal (k,t)-core H_k^t.
	KTCore Community
	// Cells are the output partitions with their communities. For local
	// search the union of cells may not cover R exactly (it reports only
	// validated non-contained MACs); for global search the cells partition R.
	Cells []CellResult
	// Stats carries effort counters.
	Stats Stats
}

// NCMACs returns the distinct non-contained MACs across all partitions.
func (r *Result) NCMACs() []Community {
	seen := make(map[string]bool)
	var out []Community
	for _, c := range r.Cells {
		if len(c.Ranked) == 0 {
			continue
		}
		k := c.Ranked[0].Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, c.Ranked[0])
		}
	}
	return out
}

// sortedIDs converts a local vertex list to a sorted global Community.
func sortedIDs(local []int32, toGlobal []int32) Community {
	out := make(Community, len(local))
	for i, v := range local {
		out[i] = toGlobal[v]
	}
	slices.Sort(out)
	return out
}

// searchSpace holds the shared state one search run starts from: the
// maximal cohesive subgraph relabeled into the DAG's local index space, and
// the engine whose deletion step searches it. The dag, hg, qLocal, and
// degBase fields point into a regionSpace that may be shared read-only with
// other concurrent queries (see Prepared); stats are per-run, accumulated
// per-scratch by workers and merged under statsMu.
type searchSpace struct {
	net    *Network
	query  *Query
	eng    Engine
	dag    *domgraph.DAG
	hg     *social.Graph // localized cohesive subgraph; vertex i == DAG local i
	qLocal []int32
	// degBase[v] is v's degree in hg, precomputed so cascade simulations
	// seed their working degrees with one copy instead of n Degree calls.
	degBase []int32

	statsMu sync.Mutex
	stats   Stats
}

// cancelled reports whether the query's Cancel channel has been closed.
// A nil channel never selects, so queries without one are unaffected.
func (ss *searchSpace) cancelled() bool { return queryCancelled(ss.query) }

func queryCancelled(q *Query) bool {
	select {
	case <-q.Cancel:
		return true
	default:
		return false
	}
}

// ErrNoCommunity is returned when no (k,t)-core containing Q exists.
var ErrNoCommunity = errors.New("mac: no (k,t)-core containing the query vertices")

// ErrCanceled is returned when the query's Cancel channel closes mid-search.
var ErrCanceled = errors.New("mac: search canceled")

// oracleErr maps a distance-oracle failure onto the search error space:
// road.ErrCanceled becomes ErrCanceled (the oracle's Cancel channel is the
// query's), anything else passes through.
func oracleErr(err error) error {
	if errors.Is(err, road.ErrCanceled) {
		return ErrCanceled
	}
	return err
}
