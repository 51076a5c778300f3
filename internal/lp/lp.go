// Package lp implements a small linear-programming solver for very low
// dimensions (typically 1-5 variables), following Seidel's randomized
// incremental algorithm. It is the numerical workhorse behind all
// preference-domain geometry: cell emptiness tests, classification of
// convex cells against hyperplanes, and interior-point (Chebyshev center)
// computation.
//
// All feasible regions handled here are bounded by an explicit box, which
// removes the unbounded-LP cases from Seidel's algorithm and keeps the
// implementation short and robust.
package lp

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Eps is the absolute tolerance used for feasibility and comparison tests.
// Attribute values and weights in this codebase are O(1), so an absolute
// tolerance is appropriate.
const Eps = 1e-9

// Constraint is a linear inequality A·x <= B.
type Constraint struct {
	A []float64
	B float64
}

// Violated reports whether x violates the constraint by more than eps.
func (c Constraint) Violated(x []float64, eps float64) bool {
	return dot(c.A, x) > c.B+eps
}

func dot(a, x []float64) float64 {
	s := 0.0
	for i, ai := range a {
		s += ai * x[i]
	}
	return s
}

// Result is the outcome of an LP solve.
type Result struct {
	// X is the optimal point (length = dimension). Valid only if Feasible.
	X []float64
	// Value is obj·X. Valid only if Feasible.
	Value float64
	// Feasible is false when the constraint system has no solution.
	Feasible bool
}

// seidelSeed fixes the constraint shuffle, making Solve deterministic.
const seidelSeed = 0x5eed

// scratch is the per-solve working storage: a bump-allocated float/int/
// constraint slab every temporary of the Seidel recursion draws from, plus
// a reusable seeded generator for the deterministic shuffle. One Solve is
// one bump epoch — nothing is freed mid-recursion, and the slabs reset
// wholesale when the solve returns to the pool. Only Result.X escapes, as
// a fresh copy.
type scratch struct {
	rng  *rand.Rand
	f64  []float64
	ints []int
	cons []Constraint
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{rng: rand.New(rand.NewSource(seidelSeed))}
}}

// floats bump-allocates n zeroed float64s. When the current slab is
// exhausted a fresh one replaces it; earlier allocations stay alive through
// the references the recursion still holds.
func (s *scratch) floats(n int) []float64 {
	if cap(s.f64)-len(s.f64) < n {
		size := 1024
		if n > size {
			size = n
		}
		s.f64 = make([]float64, 0, size)
	}
	start := len(s.f64)
	s.f64 = s.f64[:start+n]
	out := s.f64[start : start+n : start+n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// intsN bump-allocates n ints (not zeroed; callers fill every slot).
func (s *scratch) intsN(n int) []int {
	if cap(s.ints)-len(s.ints) < n {
		size := 256
		if n > size {
			size = n
		}
		s.ints = make([]int, 0, size)
	}
	start := len(s.ints)
	s.ints = s.ints[:start+n]
	return s.ints[start : start+n : start+n]
}

// consN bump-allocates a zero-length constraint slice with capacity n.
func (s *scratch) consN(n int) []Constraint {
	if cap(s.cons)-len(s.cons) < n {
		size := 256
		if n > size {
			size = n
		}
		s.cons = make([]Constraint, 0, size)
	}
	start := len(s.cons)
	s.cons = s.cons[:start+n]
	return s.cons[start : start : start+n]
}

// orderBound bounds the constraint counts whose insertion order is cached,
// which keeps the cache to a few kilobytes.
const orderBound = 64

// orders[n] is the seeded shuffle of 0..n-1, drawn by the first solve with
// n constraints. Racing solves draw the same order, so either store wins.
var orders [orderBound]atomic.Pointer[[]int]

// order returns the insertion order of n constraints. Seidel's expected
// running time depends on a random insertion order, but any fixed
// pseudo-random order works in practice for the small systems we solve.
// Counts of orderBound and above are shuffled again on every solve.
func (s *scratch) order(n int) []int {
	if n >= orderBound {
		return s.shuffle(s.intsN(n))
	}
	if p := orders[n].Load(); p != nil {
		return *p
	}
	order := s.shuffle(make([]int, n))
	orders[n].Store(&order)
	return order
}

// shuffle fills order with 0..len(order)-1 in the order a generator freshly
// seeded with seidelSeed shuffles them into, by reseeding the pooled one.
func (s *scratch) shuffle(order []int) []int {
	for i := range order {
		order[i] = i
	}
	s.rng.Seed(seidelSeed)
	s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (s *scratch) reset() {
	s.f64 = s.f64[:0]
	s.ints = s.ints[:0]
	s.cons = s.cons[:0]
}

// Solve minimizes obj·x subject to cons and lo[j] <= x[j] <= hi[j].
// The box must satisfy lo[j] <= hi[j]; the feasible region is therefore
// bounded. Solve is deterministic: the constraints are inserted in the
// order a generator seeded with seidelSeed shuffles them into, which
// depends on their count alone, so the order of each count below
// orderBound is drawn once and shared by every later solve.
func Solve(obj []float64, cons []Constraint, lo, hi []float64) Result {
	dim := len(obj)
	if dim == 0 {
		// Zero-dimensional problem: feasible iff every constraint has B >= 0.
		for _, c := range cons {
			if 0 > c.B+Eps {
				return Result{Feasible: false}
			}
		}
		return Result{X: nil, Value: 0, Feasible: true}
	}
	for j := 0; j < dim; j++ {
		if lo[j] > hi[j]+Eps {
			return Result{Feasible: false}
		}
	}
	s := scratchPool.Get().(*scratch)
	defer func() {
		s.reset()
		scratchPool.Put(s)
	}()
	shuffled := s.consN(len(cons))
	for _, idx := range s.order(len(cons)) {
		shuffled = append(shuffled, cons[idx])
	}
	x, ok := seidel(obj, shuffled, lo, hi, s)
	if !ok {
		return Result{Feasible: false}
	}
	// x lives in the scratch slab; the result must survive the reset.
	out := append([]float64(nil), x...)
	return Result{X: out, Value: dot(obj, out), Feasible: true}
}

// zeroObj serves Feasible's constant zero objective for common dimensions.
var zeroObj [16]float64

// Feasible reports whether the system {cons, box} admits any point.
func Feasible(cons []Constraint, lo, hi []float64) bool {
	if len(lo) <= len(zeroObj) {
		return Solve(zeroObj[:len(lo)], cons, lo, hi).Feasible
	}
	obj := make([]float64, len(lo))
	return Solve(obj, cons, lo, hi).Feasible
}

// Minimize returns the minimum of obj·x over the system, with feasibility flag.
func Minimize(obj []float64, cons []Constraint, lo, hi []float64) (float64, bool) {
	r := Solve(obj, cons, lo, hi)
	return r.Value, r.Feasible
}

// Maximize returns the maximum of obj·x over the system, with feasibility flag.
func Maximize(obj []float64, cons []Constraint, lo, hi []float64) (float64, bool) {
	neg := make([]float64, len(obj))
	for i, v := range obj {
		neg[i] = -v
	}
	r := Solve(neg, cons, lo, hi)
	return -r.Value, r.Feasible
}

// seidel minimizes obj·x over cons within the box, processing constraints
// incrementally. It returns the optimum (in scratch-slab storage, valid
// until the solve's reset) and a feasibility flag.
func seidel(obj []float64, cons []Constraint, lo, hi []float64, s *scratch) ([]float64, bool) {
	dim := len(obj)
	if dim == 1 {
		return solve1D(obj[0], cons, lo[0], hi[0], s)
	}
	// Start from the box corner minimizing the objective.
	x := s.floats(dim)
	for j := 0; j < dim; j++ {
		if obj[j] >= 0 {
			x[j] = lo[j]
		} else {
			x[j] = hi[j]
		}
	}
	for i, c := range cons {
		if !c.Violated(x, Eps) {
			continue
		}
		// The optimum of the first i+1 constraints lies on the boundary of
		// constraint c. Eliminate one variable by substitution and recurse.
		nx, ok := solveOnBoundary(obj, cons[:i], c, lo, hi, s)
		if !ok {
			return nil, false
		}
		x = nx
	}
	return x, true
}

// solveOnBoundary minimizes obj·x over {prev constraints, box} restricted to
// the hyperplane eq.A·x = eq.B, by eliminating the variable with the largest
// |coefficient| in eq.A.
func solveOnBoundary(obj []float64, prev []Constraint, eq Constraint, lo, hi []float64, s *scratch) ([]float64, bool) {
	dim := len(obj)
	p := -1
	best := 0.0
	for j, a := range eq.A {
		if math.Abs(a) > best {
			best = math.Abs(a)
			p = j
		}
	}
	if p < 0 {
		// Degenerate hyperplane 0·x = B. Feasible only if B ~ 0 (then the
		// "boundary" is all of space and the caller's violation was noise).
		if math.Abs(eq.B) <= Eps {
			return seidel(obj, prev, lo, hi, s)
		}
		return nil, false
	}
	// x_p = (eq.B - sum_{q != p} eq.A[q] x_q) / eq.A[p] =: beta + gamma·y
	ap := eq.A[p]
	beta := eq.B / ap
	redDim := dim - 1
	gamma := s.floats(redDim)[:0] // coefficients over reduced variables y
	keep := s.intsN(redDim)[:0]   // original indices of reduced variables
	for j := 0; j < dim; j++ {
		if j == p {
			continue
		}
		keep = append(keep, j)
		gamma = append(gamma, -eq.A[j]/ap)
	}

	// Reduced objective: obj·x = obj[p]*(beta + gamma·y) + sum obj[keep]·y.
	robj := s.floats(redDim)
	for i, j := range keep {
		robj[i] = obj[j] + obj[p]*gamma[i]
	}

	rcons := s.consN(len(prev) + 2)
	reduce := func(a []float64, b float64) {
		ra := s.floats(redDim)
		for i, j := range keep {
			ra[i] = a[j] + a[p]*gamma[i]
		}
		rcons = append(rcons, Constraint{A: ra, B: b - a[p]*beta})
	}
	for _, c := range prev {
		reduce(c.A, c.B)
	}
	// The box bounds of the eliminated variable become general constraints:
	// lo[p] <= beta + gamma·y <= hi[p]. bnd is reused for both rows: reduce
	// reads it before the second row overwrites the entry.
	bnd := s.floats(dim)
	bnd[p] = -1
	reduce(bnd, -lo[p]) // -x_p <= -lo[p]
	bnd[p] = 1
	reduce(bnd, hi[p]) // x_p <= hi[p]

	rlo := s.floats(redDim)
	rhi := s.floats(redDim)
	for i, j := range keep {
		rlo[i] = lo[j]
		rhi[i] = hi[j]
	}
	y, ok := seidel(robj, rcons, rlo, rhi, s)
	if !ok {
		return nil, false
	}
	x := s.floats(dim)
	xp := beta
	for i, j := range keep {
		x[j] = y[i]
		xp += gamma[i] * y[i]
	}
	x[p] = xp
	return x, true
}

// solve1D minimizes c*x over an interval intersected with 1-D constraints.
func solve1D(c float64, cons []Constraint, lo, hi float64, s *scratch) ([]float64, bool) {
	for _, con := range cons {
		a := con.A[0]
		switch {
		case a > Eps:
			if ub := con.B / a; ub < hi {
				hi = ub
			}
		case a < -Eps:
			if lb := con.B / a; lb > lo {
				lo = lb
			}
		default:
			if 0 > con.B+Eps {
				return nil, false
			}
		}
	}
	if lo > hi+Eps {
		return nil, false
	}
	out := s.floats(1)
	switch {
	case lo > hi:
		// Within tolerance: collapse to a point.
		out[0] = (lo + hi) / 2
	case c >= 0:
		out[0] = lo
	default:
		out[0] = hi
	}
	return out, true
}
