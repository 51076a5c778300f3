// Package mutate is the write path for live road-social networks: typed
// mutation ops applied copy-on-write to a mac.Network, with incremental
// k-core and k-truss maintenance (internal/social) and a per-dataset fsynced
// journal (journal.go) that replays on restart.
//
// The ordering discipline is apply-first, journal-second, install-third:
// Apply validates each op by applying it to a copy-on-write scratch network
// (readers of the old network are never disturbed), the caller then appends
// the accepted ops to the journal and fsyncs, and only after the append
// succeeds does it install the new network pointer. A crash after the append
// but before the install replays to exactly the state the installed pointer
// would have had.
package mutate

import (
	"fmt"

	"roadsocial/internal/mac"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// Kind identifies a mutation operation. The numeric values are part of the
// journal format and must not be renumbered.
type Kind uint8

const (
	// InsertEdge adds the undirected social edge (U, V).
	InsertEdge Kind = 1
	// DeleteEdge removes the undirected social edge (U, V).
	DeleteEdge Kind = 2
	// SetAttrs replaces user U's attribute vector with Attrs.
	SetAttrs Kind = 3
	// MoveUser relocates user U to Loc in the road network.
	MoveUser Kind = 4
)

func (k Kind) String() string {
	switch k {
	case InsertEdge:
		return "insert_edge"
	case DeleteEdge:
		return "delete_edge"
	case SetAttrs:
		return "set_attrs"
	case MoveUser:
		return "move_user"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LocSpec describes a target location for MoveUser: a road vertex when
// OnEdge is false, otherwise offset Off along road edge (U, V).
type LocSpec struct {
	OnEdge bool
	U, V   int32
	Off    float64
}

// Op is one mutation. U/V are social vertex ids for edge ops and the user id
// (in U) for SetAttrs and MoveUser.
type Op struct {
	Kind  Kind
	U, V  int32
	Attrs []float64
	Loc   LocSpec
}

// State is the incrementally maintained cohesiveness state of a live
// dataset. Core and Truss may be nil (journal replay and datasets that have
// not yet served a live mutation); Apply then performs the structural
// mutation only and the owner runs a full decomposition lazily.
type State struct {
	// Version counts applied mutations; each accepted op bumps it by one.
	Version uint64
	// Core holds per-vertex core numbers, maintained by restricted BZ
	// re-peeling of the affected subcore.
	Core []int
	// Truss holds per-edge truss numbers from TrussDecomposition (its keys
	// decode with social.EdgeKeyEndpoints), maintained by triangle-local
	// support propagation.
	Truss map[int64]int
}

// Summary reports what a batch of mutations changed, in the form the cache
// invalidation layer consumes.
type Summary struct {
	// Applied is the number of ops applied (always len(ops) on success).
	Applied int
	// Touched is the set of social vertices whose structural role changed:
	// mutated endpoints, attribute/location targets, and every vertex whose
	// core number moved or that borders an edge whose truss number moved. A
	// prepared community disjoint from Touched and above CoreBound is
	// provably unaffected.
	Touched map[int32]bool
	// CoreChanged and TrussChanged count vertices/edges whose core/truss
	// numbers changed (0 when State carries no decompositions).
	CoreChanged  int
	TrussChanged int
	// CoreBound is the largest k for which a prepared k-core that does NOT
	// intersect Touched could still gain members: the max over edge inserts
	// of min(core(u), core(v)) and over user moves of core(user), post-
	// mutation. Edge deletes and attribute updates only affect communities
	// that intersect Touched. -1 when nothing requires a k-bound check.
	CoreBound int
	// AttrDeltas maps users whose ONLY change in the batch is an attribute
	// replacement to their before/after vectors. Such users are in Touched,
	// but their community membership provably did not move — attributes
	// never enter the (k,t)-core or k-truss definition — so a consumer can
	// apply a finer relevance test (e.g. score equality over a preference
	// region) instead of dropping state on intersection alone. A user that
	// the same batch also touches structurally (edge op, move, core/truss
	// change) is evicted from this map: the structural test governs.
	AttrDeltas map[int32]*AttrDelta

	// structural is the subset of Touched whose change is (or may be)
	// structural: Touched minus the AttrDeltas keys.
	structural map[int32]bool

	// Undo log: every core/truss write of the batch with its pre-write
	// value, in application order. Recording old values as they are
	// overwritten is what lets Apply mutate the live State in place —
	// cloning the truss map per batch would cost O(edges) on every
	// mutation, dwarfing the incremental maintenance itself.
	baseVersion uint64
	undoCore    []coreUndo
	undoTruss   []social.TrussDelta
}

// AttrDelta is one user's attribute replacement: the vector before the batch
// and after it.
type AttrDelta struct {
	Old, New []float64
}

// StructTouched is the structurally touched vertex set: Touched minus
// attribute-only updates. Callers must not mutate it.
func (s *Summary) StructTouched() map[int32]bool { return s.structural }

// AttrOnlyBatch reports a batch whose every change is an attribute
// replacement — no structural op, no k-bound to check. Such a batch cannot
// change any community's membership.
func (s *Summary) AttrOnlyBatch() bool {
	return len(s.structural) == 0 && s.CoreBound < 0
}

// touchStruct records a structural touch of v, which subsumes any attribute
// delta recorded for it.
func (s *Summary) touchStruct(v int32) {
	s.Touched[v] = true
	s.structural[v] = true
	delete(s.AttrDeltas, v)
}

// touchAttr records an attribute replacement of u. The first old vector of
// the batch is kept (the pre-batch value); later replacements only move New.
func (s *Summary) touchAttr(u int32, old, new []float64) {
	s.Touched[u] = true
	if s.structural[u] {
		return
	}
	if d, ok := s.AttrDeltas[u]; ok {
		d.New = new
		return
	}
	s.AttrDeltas[u] = &AttrDelta{Old: old, New: new}
}

type coreUndo struct {
	v   int32
	old int
}

// Revert rolls st back to its value before the Apply that produced this
// summary — the escape hatch for a batch that applied cleanly but then
// failed to reach the journal. Writes are undone newest-first, so a value
// rewritten twice within the batch lands back on its original.
func (s *Summary) Revert(st *State) {
	for i := len(s.undoCore) - 1; i >= 0; i-- {
		st.Core[s.undoCore[i].v] = s.undoCore[i].old
	}
	for i := len(s.undoTruss) - 1; i >= 0; i-- {
		d := s.undoTruss[i]
		if d.Existed {
			st.Truss[d.Key] = d.Old
		} else {
			delete(st.Truss, d.Key)
		}
	}
	st.Version = s.baseVersion
}

// Apply validates and applies ops to net copy-on-write, returning the new
// network. net is never modified. st IS mutated in place — its core/truss
// maps are updated incrementally with every overwritten value recorded in
// the summary's undo log, so the whole batch stays atomic without cloning
// O(edges) of state per call: a mid-batch error rolls st back before
// returning, and a caller whose post-Apply step fails (journal write, say)
// calls Summary.Revert. st.Version advances by one per applied op.
func Apply(net *mac.Network, st *State, ops []Op) (*mac.Network, *Summary, error) {
	sg := net.Social
	locs := net.Locs
	locsOwned := false
	sum := &Summary{
		Touched:     make(map[int32]bool),
		CoreBound:   -1,
		AttrDeltas:  make(map[int32]*AttrDelta),
		structural:  make(map[int32]bool),
		baseVersion: st.Version,
	}
	maintain := st.Core != nil
	fail := func(i int, err error) (*mac.Network, *Summary, error) {
		sum.Revert(st)
		return nil, nil, fmt.Errorf("op %d: %w", i, err)
	}

	for i, op := range ops {
		switch op.Kind {
		case InsertEdge:
			ng, err := sg.WithEdge(int(op.U), int(op.V))
			if err != nil {
				return fail(i, err)
			}
			sg = ng
			sum.touchStruct(op.U)
			sum.touchStruct(op.V)
			if maintain {
				changedV := sg.IncrementalCoreInsert(st.Core, op.U, op.V)
				changedE := sg.IncrementalTrussInsert(st.Truss, op.U, op.V)
				sum.noteChanges(st, changedV, +1, changedE)
				if b := min(st.Core[op.U], st.Core[op.V]); b > sum.CoreBound {
					sum.CoreBound = b
				}
			}
		case DeleteEdge:
			ng, err := sg.WithoutEdge(int(op.U), int(op.V))
			if err != nil {
				return fail(i, err)
			}
			sg = ng
			sum.touchStruct(op.U)
			sum.touchStruct(op.V)
			if maintain {
				changedV := sg.IncrementalCoreDelete(st.Core, op.U, op.V)
				changedE := sg.IncrementalTrussDelete(st.Truss, op.U, op.V)
				sum.noteChanges(st, changedV, -1, changedE)
			}
		case SetAttrs:
			ng, err := sg.WithAttrs(int(op.U), op.Attrs)
			if err != nil {
				return fail(i, err)
			}
			// The pre-batch vector is still readable from the old graph
			// (copy-on-write); capture it before swapping so consumers can
			// test whether the move is visible inside a preference region.
			old := append([]float64(nil), sg.Attrs(int(op.U))...)
			sg = ng
			sum.touchAttr(op.U, old, append([]float64(nil), op.Attrs...))
		case MoveUser:
			if op.U < 0 || int(op.U) >= sg.N() {
				return fail(i, fmt.Errorf("move of unknown user %d", op.U))
			}
			loc, err := resolveLoc(net.Road, op.Loc)
			if err != nil {
				return fail(i, err)
			}
			if !locsOwned {
				locs = append([]road.Location(nil), locs...)
				locsOwned = true
			}
			locs[op.U] = loc
			sum.touchStruct(op.U)
			if maintain {
				if b := st.Core[op.U]; b > sum.CoreBound {
					sum.CoreBound = b
				}
			}
		default:
			return fail(i, fmt.Errorf("unknown kind %d", op.Kind))
		}
		st.Version++
		sum.Applied++
	}

	out := *net
	out.Social = sg
	out.Locs = locs
	return &out, sum, nil
}

// noteChanges folds an incremental-maintenance changed set into the summary:
// the touched/changed bookkeeping the cache-invalidation layer consumes plus
// the undo log. Core undo values are reconstructed from the delta direction
// (a single-edge update moves a core number by exactly ±1); truss deltas
// carry their old values already.
func (s *Summary) noteChanges(st *State, changedV []int32, coreDelta int, changedE []social.TrussDelta) {
	s.CoreChanged += len(changedV)
	s.TrussChanged += len(changedE)
	for _, v := range changedV {
		s.touchStruct(v)
		s.undoCore = append(s.undoCore, coreUndo{v: v, old: st.Core[v] - coreDelta})
	}
	for _, d := range changedE {
		u, v := social.EdgeKeyEndpoints(d.Key)
		s.touchStruct(u)
		s.touchStruct(v)
	}
	s.undoTruss = append(s.undoTruss, changedE...)
}

// resolveLoc validates a LocSpec against the road graph and builds the
// road.Location it names.
func resolveLoc(g *road.Graph, l LocSpec) (road.Location, error) {
	if !l.OnEdge {
		if l.U < 0 || int(l.U) >= g.N() {
			return road.Location{}, fmt.Errorf("mutate: road vertex %d out of range [0,%d)", l.U, g.N())
		}
		return road.VertexLocation(int(l.U)), nil
	}
	return g.EdgeLocation(int(l.U), int(l.V), l.Off)
}

// InitState runs full decompositions to seed a State for incremental
// maintenance. Callers invoke it lazily at the first live mutation so that
// datasets which never mutate pay nothing.
func InitState(sg *social.Graph, version uint64) *State {
	core, _ := sg.CoreDecomposition(nil)
	truss, _ := sg.TrussDecomposition(nil)
	return &State{Version: version, Core: core, Truss: truss}
}
