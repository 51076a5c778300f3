package mac

import (
	"fmt"
	"sort"

	"roadsocial/internal/social"
)

// Variant names a structural-cohesiveness criterion. The paper's remark
// (Section II-B) is that the MAC pipeline — road range query, maximal
// cohesive subgraph, r-dominance refinement over the preference region —
// is criterion-agnostic; a Variant selects which maximal subgraph seeds it.
type Variant string

const (
	// VariantCore seeds the search with the maximal (k,t)-core (the paper's
	// primary algorithms; supports global and local search).
	VariantCore Variant = "core"
	// VariantTruss seeds the search with the maximal connected k-truss
	// within query distance t (every edge in at least k-2 triangles).
	VariantTruss Variant = "truss"
)

// SearchMode selects the search framework a Prepared runs.
type SearchMode int

const (
	// ModeGlobal is the exact DFS-based search (Algorithm 1, with the
	// variant's deletion step) — every engine supports it.
	ModeGlobal SearchMode = iota
	// ModeLocal is the local search framework (Algorithms 3-5): faster,
	// sound, not complete. Core-only.
	ModeLocal
)

// SearchOptions parameterizes Prepared.Search. The zero value selects the
// exact global search.
type SearchOptions struct {
	Mode SearchMode
	// Local tunes the local search framework; ignored for ModeGlobal.
	Local LocalOptions
}

// Engine is the pluggable search-engine contract every cohesiveness variant
// implements: Prepare computes the (Q, K, T)-keyed half of a query family
// once — the road-network range query plus the variant's maximal cohesive
// subgraph — and returns a variant-agnostic Prepared handle that serves any
// number of concurrent searches varying Region, J, Parallelism, and Cancel.
//
// The two built-in engines (core, truss) are obtained from EngineFor;
// callers that hard-code a variant can use Prepare (core) or PrepareTruss.
// The seed, search and deletion-step halves are unexported, so engines live
// in this package — "pluggable" means the service tier and every caller
// above it select and drive engines solely through this interface, never
// through variant-specific entry points.
type Engine interface {
	// Variant names the engine's cohesiveness criterion; it is part of any
	// external cache identity (two variants sharing (Q, K, T) prepare
	// different subgraphs).
	Variant() Variant
	// Prepare computes the reusable prepared state for the query's
	// (Q, K, T) family. It returns ErrNoCommunity when no maximal cohesive
	// subgraph containing Q exists.
	Prepare(net *Network, q *Query) (*Prepared, error)

	// seed computes the members of the maximal cohesive subgraph containing
	// q.Q within query distance q.T — the variant-specific half of Prepare.
	seed(net *Network, q *Query) ([]int32, error)
	// search runs the engine over a resolved region space.
	search(p *Prepared, rs *regionSpace, q *Query, opts SearchOptions) (*Result, error)

	// rootSub and deleteLeaf are the one step of Algorithm 1 that depends on
	// the variant: deleting the smallest-score leaf u from a task's
	// community H and restoring the variant's maximal cohesive subgraph
	// containing Q. gsEngine drives both variants through them.
	//
	// rootSub returns the cascade state of the whole search space, carried
	// by the root task, or nil for a step that keeps none.
	rootSub(ss *searchSpace) *social.Sub
	// deleteLeaf returns the local vertices the deletion removes and the
	// child task's cascade state. ok=false is Corollary 1's condition (2):
	// no cohesive subgraph containing Q survives the deletion.
	deleteLeaf(ss *searchSpace, t gsTask, u int32, sc *macScratch) (batch []int32, sub *social.Sub, ok bool)
}

// engines registers the built-in variants.
var engines = map[Variant]Engine{
	VariantCore:  coreEngine{},
	VariantTruss: trussVariant{},
}

// EngineFor returns the engine implementing the variant.
func EngineFor(v Variant) (Engine, error) {
	if eng, ok := engines[v]; ok {
		return eng, nil
	}
	return nil, fmt.Errorf("mac: unknown search variant %q", v)
}

// prepareEngine is the variant-agnostic body of Engine.Prepare.
func prepareEngine(eng Engine, net *Network, q *Query) (*Prepared, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(net); err != nil {
		return nil, err
	}
	members, err := eng.seed(net, q)
	if err != nil {
		return nil, err
	}
	qs := append([]int32(nil), q.Q...)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return &Prepared{
		eng: eng, net: net, q: qs, k: q.K, t: q.T, members: members,
		regions: make(map[string]*regionEntry),
	}, nil
}

// coreEngine is the k-core engine: the paper's primary algorithms.
type coreEngine struct{}

func (coreEngine) Variant() Variant { return VariantCore }

func (e coreEngine) Prepare(net *Network, q *Query) (*Prepared, error) {
	return prepareEngine(e, net, q)
}

func (coreEngine) seed(net *Network, q *Query) ([]int32, error) {
	return ktCore(net, q.Q, q.K, q.T, q.Parallelism, q.Cancel)
}

func (coreEngine) search(p *Prepared, rs *regionSpace, q *Query, opts SearchOptions) (*Result, error) {
	ss := newSearchSpace(p.network(), rs, q, coreEngine{})
	if opts.Mode == ModeLocal {
		return localSearchOn(ss, q, opts.Local)
	}
	return globalSearchOn(ss, q)
}

func (coreEngine) rootSub(ss *searchSpace) *social.Sub {
	return social.NewSub(ss.hg, allLocal(ss.dag.N()))
}

// deleteLeaf runs the k-core cascade of Algorithm 1's DFS procedure on a
// pooled copy of the task's Sub.
func (coreEngine) deleteLeaf(ss *searchSpace, t gsTask, u int32, sc *macScratch) ([]int32, *social.Sub, bool) {
	sub := sc.getSub(t.sub)
	batch, ok := sub.TryDeleteCascade(u, ss.query.K, ss.qLocal)
	if !ok {
		sc.putSub(sub)
		return nil, nil, false
	}
	return batch, sub, true
}

// newSearchSpace assembles a per-run searchSpace over a resolved region
// space, searched with the engine's deletion step. The returned space shares
// dag, hg, qLocal, and degBase read-only with every concurrent run on the
// same region; stats are fresh per run.
func newSearchSpace(net *Network, rs *regionSpace, q *Query, eng Engine) *searchSpace {
	ss := &searchSpace{
		net: net, query: q, eng: eng,
		dag: rs.dag, hg: rs.hg, qLocal: rs.qLocal, degBase: rs.degBase,
	}
	ss.stats.KTCoreSize = rs.dag.N()
	ss.stats.KTCoreEdges = rs.hg.M()
	ss.stats.DomGraphArcs = rs.arcs
	return ss
}

// trussVariant is the k-truss engine. It runs Algorithm 1 on gsEngine like
// the core engine, over the same region state; its deletion step
// recomputes the maximal connected k-truss over the task's community in
// local ids (see deleteLeaf), where the core engine runs an incremental
// cascade, so each truss deletion costs a truss decomposition of H.
type trussVariant struct{}

func (trussVariant) Variant() Variant { return VariantTruss }

func (e trussVariant) Prepare(net *Network, q *Query) (*Prepared, error) {
	return prepareEngine(e, net, q)
}

// seed computes the maximal connected k-truss containing Q after the Lemma 1
// range filter — the truss analogue of the maximal (k,t)-core.
func (trussVariant) seed(net *Network, q *Query) ([]int32, error) {
	allowed, err := inRange(net, q.Q, q.T, q.Parallelism, q.Cancel)
	if err != nil {
		return nil, err
	}
	base := net.Social.MaximalConnectedKTruss(q.Q, q.K, allowed)
	if base == nil {
		return nil, ErrNoCommunity
	}
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	return base, nil
}

func (trussVariant) search(p *Prepared, rs *regionSpace, q *Query, opts SearchOptions) (*Result, error) {
	if opts.Mode != ModeGlobal {
		return nil, fmt.Errorf("mac: the truss engine supports only the global search mode")
	}
	return globalSearchOn(newSearchSpace(p.network(), rs, q, trussVariant{}), q)
}
