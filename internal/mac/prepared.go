package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"roadsocial/internal/domgraph"
	"roadsocial/internal/geom"
	"roadsocial/internal/social"
)

// Prepared is the reusable prepared state of a MAC query family, produced by
// an Engine: everything the search derives from (Q, k, t) before looking at
// the preference region. It holds the members of the engine's maximal
// cohesive subgraph — the (k,t)-core for the core engine (Lemmas 1-3), the
// maximal connected k-truss within distance t for the truss engine — whose
// computation is dominated by the road-network range query and dominates
// small-query latency, plus a small internal cache of region-dependent
// state (the r-dominance DAG and the localized community graph), so a
// stream of queries sharing (engine, Q, k, t) pays Prepare once and queries
// that additionally share the region skip straight to the search.
//
// A Prepared is immutable apart from its internal region cache, which is
// synchronized: any number of goroutines may call Search (and the
// GlobalSearch/LocalSearch conveniences) concurrently.
type Prepared struct {
	eng Engine
	net *Network
	q   []int32 // query vertices, sorted canonical copy
	k   int
	t   float64
	// members is the maximal cohesive subgraph's vertex set, sorted
	// ascending.
	members []int32

	mu      sync.Mutex
	regions map[string]*regionEntry
	order   []string // region keys, least recently used first
}

// maxRegionSpaces bounds the per-Prepared region cache. Regions beyond the
// bound evict least-recently-used entries; in-flight builds always complete
// for their waiters even when evicted.
const maxRegionSpaces = 8

// regionSpace is the region-dependent half of the prepared state, read-only
// after construction and shared across every query that uses it: the
// r-dominance DAG over the members and the localized graph hg over the same
// local ids, for both variants. hg shares its members' attribute vectors
// with the network's social graph instead of copying them.
type regionSpace struct {
	dag     *domgraph.DAG
	hg      *social.Graph
	qLocal  []int32
	degBase []int32
	arcs    int
}

// regionEntry coalesces concurrent builds of the same region: the first
// caller builds, later callers wait on ready. The region itself is kept so
// RebaseAttrs can re-test an attribute change against it.
type regionEntry struct {
	ready  chan struct{}
	region *geom.Region
	rs     *regionSpace
	err    error
}

// Prepare computes the maximal (k,t)-core for the query and returns the
// core engine's Prepared handle, which can serve any number of subsequent
// searches sharing the query's (Q, K, T) — the preference region, J,
// Parallelism, and Cancel knobs may vary per search. It returns
// ErrNoCommunity when no (k,t)-core containing Q exists. Variant-generic
// callers use EngineFor(...).Prepare instead.
func Prepare(net *Network, q *Query) (*Prepared, error) {
	return coreEngine{}.Prepare(net, q)
}

// PrepareTruss computes the maximal connected k-truss within distance t and
// returns the truss engine's Prepared handle, under the same contract as
// Prepare.
func PrepareTruss(net *Network, q *Query) (*Prepared, error) {
	return trussVariant{}.Prepare(net, q)
}

// Engine returns the engine that prepared this state.
func (p *Prepared) Engine() Engine { return p.eng }

// Variant returns the prepared cohesiveness criterion.
func (p *Prepared) Variant() Variant { return p.eng.Variant() }

// Members returns the vertex set of the engine's maximal cohesive subgraph
// (the (k,t)-core or the maximal k-truss), sorted ascending.
func (p *Prepared) Members() Community {
	return append(Community(nil), p.members...)
}

// Cost is the admission weight of this prepared state for cost-aware
// caches: proportional to the cohesive subgraph's size, which bounds both
// the memory the handle retains (members, DAG, localized graph per cached
// region) and the work a rebuild would redo. Always >= 1.
func (p *Prepared) Cost() int64 {
	if len(p.members) < 1 {
		return 1
	}
	return int64(len(p.members))
}

// network reads the backing network under the lock: RebaseAttrs may swap it
// when an attribute-only mutation batch keeps the handle warm.
func (p *Prepared) network() *Network {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.net
}

// ContainsVertex reports whether v is a member of the prepared cohesive
// subgraph.
func (p *Prepared) ContainsVertex(v int32) bool {
	i := sort.Search(len(p.members), func(i int) bool { return p.members[i] >= v })
	return i < len(p.members) && p.members[i] == v
}

// AttrChange is one user's attribute replacement, as the mutation layer
// reports it: the vector before the batch and after it.
type AttrChange struct {
	User     int32
	Old, New []float64
}

// RebaseAttrs attempts to carry the prepared state across an attribute-only
// mutation batch instead of dropping it. Membership of the cohesive subgraph
// never depends on attributes, so the member set stays valid; what an
// attribute change can break is the cached region-dependent state (the
// r-dominance DAG reads member attribute vectors). The handle therefore (a)
// prunes every cached region in which some member's score visibly moved —
// i.e. the old and new vectors are NOT score-equal over that region — and
// (b) swaps its backing network to net so future region builds read the new
// attributes. Regions where the change is provably invisible (score-equal at
// every region corner) stay warm.
//
// Returns false when the handle must be dropped instead: a region build is
// in flight (it may have read either network, so its result cannot be
// trusted against net).
func (p *Prepared) RebaseAttrs(net *Network, changes []AttrChange) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.regions {
		select {
		case <-e.ready:
		default:
			return false
		}
	}
	for key, e := range p.regions {
		visible := e.err != nil || e.rs == nil
		if !visible {
			for _, ch := range changes {
				if !p.ContainsVertex(ch.User) {
					continue
				}
				if e.region == nil ||
					e.region.Compare(geom.ScoreOf(ch.Old), geom.ScoreOf(ch.New)) != geom.REqual {
					visible = true
					break
				}
			}
		}
		if visible {
			delete(p.regions, key)
			for i, k := range p.order {
				if k == key {
					p.order = append(p.order[:i], p.order[i+1:]...)
					break
				}
			}
		}
	}
	p.net = net
	return true
}

// IntersectsVertices reports whether the prepared cohesive subgraph
// contains any vertex in touched. It is the mutation subsystem's seed
// invalidation hook: a prepared (Q, k, t) whose member set is disjoint from
// the mutated region cannot have changed and stays cached.
func (p *Prepared) IntersectsVertices(touched map[int32]bool) bool {
	if len(touched) < len(p.members) {
		for v := range touched {
			i := sort.Search(len(p.members), func(i int) bool { return p.members[i] >= v })
			if i < len(p.members) && p.members[i] == v {
				return true
			}
		}
		return false
	}
	for _, v := range p.members {
		if touched[v] {
			return true
		}
	}
	return false
}

// K returns the prepared coreness (or truss) threshold.
func (p *Prepared) K() int { return p.k }

// T returns the prepared query-distance threshold.
func (p *Prepared) T() float64 { return p.t }

// Q returns the prepared query vertices, sorted ascending. Callers must not
// mutate the result.
func (p *Prepared) Q() []int32 { return p.q }

// Search runs the engine on the prepared state. The query must agree with
// the prepared (Q, K, T); region, J, Parallelism, and Cancel are the
// query's own. It is the single variant-agnostic entry point the service
// tier uses; GlobalSearch and LocalSearch are conveniences over it.
func (p *Prepared) Search(q *Query, opts SearchOptions) (*Result, error) {
	if err := q.Validate(p.network()); err != nil {
		return nil, err
	}
	if err := p.matches(q); err != nil {
		return nil, err
	}
	rs, err := p.regionSpace(q)
	if err != nil {
		return nil, err
	}
	return p.eng.search(p, rs, q, opts)
}

// GlobalSearch runs the exact DFS-based search on the prepared state.
func (p *Prepared) GlobalSearch(q *Query) (*Result, error) {
	return p.Search(q, SearchOptions{Mode: ModeGlobal})
}

// LocalSearch runs the local search framework on the prepared state, under
// the same query-compatibility contract as GlobalSearch. The truss engine
// has no local search and returns an error.
func (p *Prepared) LocalSearch(q *Query, opts LocalOptions) (*Result, error) {
	return p.Search(q, SearchOptions{Mode: ModeLocal, Local: opts})
}

// matches checks that q asks for the prepared query family.
func (p *Prepared) matches(q *Query) error {
	if q.K != p.k || q.T != p.t {
		return fmt.Errorf("mac: prepared for (k=%d, t=%g), query asks (k=%d, t=%g)", p.k, p.t, q.K, q.T)
	}
	if len(q.Q) != len(p.q) {
		return fmt.Errorf("mac: prepared for %d query vertices, query has %d", len(p.q), len(q.Q))
	}
	qs := append([]int32(nil), q.Q...)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for i, v := range qs {
		if v != p.q[i] {
			return fmt.Errorf("mac: prepared query set %v, query asks %v", p.q, qs)
		}
	}
	return nil
}

// regionSpace returns the cached region state for q.Region, building it at
// most once per distinct region: concurrent callers with the same region
// coalesce on one build, and the cache keeps the maxRegionSpaces most
// recently used regions. A build runs under its builder's Cancel only; when
// the builder is canceled mid-build, a waiter whose own query is still live
// takes over as the next builder instead of inheriting the cancellation.
func (p *Prepared) regionSpace(q *Query) (*regionSpace, error) {
	key := regionKey(q.Region)
	for {
		p.mu.Lock()
		if e, ok := p.regions[key]; ok {
			p.touch(key)
			p.mu.Unlock()
			select {
			case <-e.ready:
			case <-q.Cancel:
				return nil, ErrCanceled
			}
			if errors.Is(e.err, ErrCanceled) && !queryCancelled(q) {
				// The builder's cancellation, not ours; its entry is being
				// removed — retry and become the builder.
				continue
			}
			return e.rs, e.err
		}
		e := &regionEntry{ready: make(chan struct{}), region: q.Region}
		p.regions[key] = e
		p.order = append(p.order, key)
		if len(p.order) > maxRegionSpaces {
			evict := p.order[0]
			p.order = p.order[1:]
			delete(p.regions, evict)
		}
		p.mu.Unlock()

		rs, err := p.buildRegionSpace(q)
		e.rs, e.err = rs, err
		close(e.ready)
		if err != nil {
			// Failed (typically canceled) builds must not be served from
			// cache.
			p.mu.Lock()
			if cur, ok := p.regions[key]; ok && cur == e {
				delete(p.regions, key)
				for i, k := range p.order {
					if k == key {
						p.order = append(p.order[:i], p.order[i+1:]...)
						break
					}
				}
			}
			p.mu.Unlock()
		}
		return rs, err
	}
}

// touch moves key to the most-recently-used end of the eviction order.
// Caller holds p.mu.
func (p *Prepared) touch(key string) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i], p.order[i+1:]...), key)
			return
		}
	}
}

// buildRegionSpace constructs the r-dominance graph over the cohesive
// subgraph for the query's region and relabels the community graph into the
// DAG's local space.
func (p *Prepared) buildRegionSpace(q *Query) (*regionSpace, error) {
	if queryCancelled(q) {
		return nil, ErrCanceled
	}
	net := p.network()
	vecs := make([][]float64, len(p.members))
	for i, v := range p.members {
		vecs[i] = net.Social.Attrs(int(v))
	}
	dag := domgraph.Build(q.Region, p.members, vecs, 0)
	if queryCancelled(q) {
		return nil, ErrCanceled
	}

	qLocal := make([]int32, len(p.q))
	for i, v := range p.q {
		qLocal[i] = dag.Local[v]
	}
	arcs := 0
	for v := int32(0); v < int32(dag.N()); v++ {
		arcs += len(dag.Children(v))
	}
	// Localized graph: vertex i corresponds to dag.IDs[i].
	hg := net.Social.Induced(dag.IDs)
	rs := &regionSpace{dag: dag, hg: hg, qLocal: qLocal, arcs: arcs, degBase: make([]int32, hg.N())}
	for v := range rs.degBase {
		rs.degBase[v] = int32(hg.Degree(v))
	}
	return rs, nil
}

// regionKey is a canonical byte signature of a region: box bounds, extra
// halfspaces, and corners (caller-supplied for polytopes), each section
// length-prefixed so distinct regions cannot collide. Regions are equal
// under the key iff their defining floats are bit-identical — the right
// notion for cache identity, where "same request repeated" is the target.
func regionKey(r *geom.Region) string {
	b := make([]byte, 0, 16*(len(r.Lo)+len(r.Hi))+64)
	f := func(v float64) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	vec := func(vs []float64) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
		for _, v := range vs {
			f(v)
		}
	}
	vec(r.Lo)
	vec(r.Hi)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Extra)))
	for _, h := range r.Extra {
		vec(h.A)
		f(h.B)
	}
	corners := r.Corners()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(corners)))
	for _, c := range corners {
		vec(c)
	}
	return string(b)
}
