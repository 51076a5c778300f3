package road

import (
	"errors"
	"sync/atomic"

	"roadsocial/internal/conc"
)

// ErrCanceled is returned by QueryDistances when the oracle's Cancel channel
// closes before every query location has been processed.
var ErrCanceled = errors.New("road: range query canceled")

// Oracle answers the distance computations the MAC search needs from the
// road network: per-user query distances D_Q(v) = max_{q in Q} dist(L(v),
// L(q)), pruned at threshold t. Implementations: the plain Dijkstra-based
// RangeQuerier, and the index-accelerated GTree. Both are safe for
// concurrent use.
type Oracle interface {
	// QueryDistances returns, for each user location, D_Q = max over the
	// query locations of the network distance, computed exactly for users
	// within bound and reported as Inf beyond it (any value > bound may be
	// reported as Inf). A cancelled computation returns (nil, ErrCanceled):
	// the distance vector is never partially delivered, so callers need no
	// post-call guard of their own.
	QueryDistances(queries []Location, users []Location, bound float64) ([]float64, error)
}

// Cancelable is an Oracle that can bind a per-query cancel channel. A
// shared immutable index (e.g. GTree) implements it by returning a
// lightweight view; the query layer binds Query.Cancel through it so even
// index-accelerated range queries abort mid-traversal.
type Cancelable interface {
	Oracle
	// WithCancel returns an Oracle whose QueryDistances aborts with
	// ErrCanceled once cancel closes. A nil cancel returns the receiver.
	WithCancel(cancel <-chan struct{}) Oracle
}

// RangeQuerier is the baseline Oracle: one bounded Dijkstra per query
// location over the full road graph. The per-location Dijkstras are
// independent and run on up to Parallelism workers (<= 0 selects
// GOMAXPROCS, 1 forces sequential); the per-user max-fold is
// order-independent, so output never depends on scheduling.
type RangeQuerier struct {
	G           *Graph
	Parallelism int
	// Cancel, when non-nil and closed, makes QueryDistances stop after the
	// in-flight per-location Dijkstras and return ErrCanceled instead of a
	// distance vector.
	Cancel <-chan struct{}
}

// QueryDistances implements Oracle.
func (r RangeQuerier) QueryDistances(queries []Location, users []Location, bound float64) ([]float64, error) {
	return maxFoldQueries(conc.Parallelism(r.Parallelism), len(queries), len(users), r.Cancel,
		func(qi int, row []float64) error { return r.queryRow(queries[qi], users, bound, row) })
}

// queryRow fills row[i] with the network distance from query location q to
// users[i]. Cancellation interrupts the underlying Dijkstra mid-expansion,
// so a single huge bounded search no longer runs to completion after its
// query was abandoned.
func (r RangeQuerier) queryRow(q Location, users []Location, bound float64, row []float64) error {
	dist, err := r.G.DistancesFromCancel(q, bound, r.Cancel)
	if err != nil {
		return err
	}
	fillRow(q, dist, users, row)
	return nil
}

// fillRow evaluates the distance field dist of query location q at every
// user location, the step both oracles end with. The sameEdgeDirect
// shortcut only applies to edge-located queries: a vertex-located query
// can never share an edge interior with a user.
func fillRow(q Location, dist []float64, users []Location, row []float64) {
	if q.OnVertex() {
		for i, u := range users {
			row[i] = DistanceAt(dist, u)
		}
		return
	}
	for i, u := range users {
		d := DistanceAt(dist, u)
		if direct, ok := sameEdgeDirect(q, u); ok && direct < d {
			d = direct
		}
		row[i] = d
	}
}

// maxFoldQueries is the per-query-location fan-out shared by the oracles:
// queryRow(qi, row) fills one location's per-user distance row, and the
// rows are max-folded into a fresh output slice. The fold is
// order-independent, so output never depends on worker scheduling. A
// single-location query writes straight into the zeroed output (distances
// are non-negative, so assignment equals the fold). Cancellation makes the
// fan-out stop claiming locations — and a queryRow may itself return
// ErrCanceled mid-expansion — and return ErrCanceled, never a partial
// vector.
func maxFoldQueries(par, nQueries, nUsers int, cancel <-chan struct{}, queryRow func(qi int, row []float64) error) ([]float64, error) {
	out := make([]float64, nUsers)
	if nQueries == 0 {
		return out, nil
	}
	if nQueries == 1 {
		if chanClosed(cancel) {
			return nil, ErrCanceled
		}
		if err := queryRow(0, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if par <= 1 {
		row := make([]float64, nUsers)
		for qi := 0; qi < nQueries; qi++ {
			if chanClosed(cancel) {
				return nil, ErrCanceled
			}
			if err := queryRow(qi, row); err != nil {
				return nil, err
			}
			foldRowMax(out, row)
		}
		return out, nil
	}
	// Each worker folds into a private accumulator, bounding transient
	// memory by the worker count rather than the query count; max is
	// associative and commutative, so the two-level fold is still
	// schedule-independent.
	if par > nQueries {
		par = nQueries
	}
	type workerRows struct{ scratch, acc []float64 }
	ws := make([]*workerRows, par)
	var canceled atomic.Bool
	conc.For(par, nQueries, func(worker, qi int) {
		if canceled.Load() || chanClosed(cancel) {
			canceled.Store(true)
			return
		}
		w := ws[worker]
		if w == nil {
			w = &workerRows{scratch: make([]float64, nUsers), acc: make([]float64, nUsers)}
			ws[worker] = w
		}
		if err := queryRow(qi, w.scratch); err != nil {
			canceled.Store(true)
			return
		}
		foldRowMax(w.acc, w.scratch)
	})
	if canceled.Load() || chanClosed(cancel) {
		return nil, ErrCanceled
	}
	for _, w := range ws {
		if w != nil {
			foldRowMax(out, w.acc)
		}
	}
	return out, nil
}

// foldRowMax folds one per-user distance row into the running maxima.
func foldRowMax(out, row []float64) {
	for i, d := range row {
		if d > out[i] {
			out[i] = d
		}
	}
}

// chanClosed reports whether c is closed; a nil channel reports false.
func chanClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// FilterWithin returns the indexes of users whose query distance is at most
// t — the Lemma 1 filter producing the candidate set for the maximal
// (k,t)-core.
func FilterWithin(o Oracle, queries []Location, users []Location, t float64) (idx []int, dq []float64, err error) {
	dq, err = o.QueryDistances(queries, users, t)
	if err != nil {
		return nil, nil, err
	}
	for i, d := range dq {
		if d <= t {
			idx = append(idx, i)
		}
	}
	return idx, dq, nil
}
