package geom

import (
	"errors"
	"fmt"
)

// Region is the user preference region R: a convex polytope in the
// (d-1)-dimensional preference domain. The common case is an axis-parallel
// hyper-rectangle (as in the paper's experiments, where R is a hypercube of
// side length σ·axis), but general convex polytopes are supported by adding
// extra halfspaces to a bounding box and supplying the corner list.
type Region struct {
	// Lo, Hi bound the region (and for pure boxes define it exactly).
	Lo, Hi []float64
	// Extra holds halfspaces beyond the box for general convex polytopes.
	Extra []Halfspace
	// corners caches the polytope vertices used for r-dominance tests.
	corners [][]float64
	// pivot caches the mean of the corners (guaranteed inside R by
	// convexity), used as the BBS sorting key vector (Section IV-B).
	pivot []float64
}

// NewBox returns the axis-parallel hyper-rectangle region [lo, hi].
// A zero-dimensional box (d = 1 attributes) is allowed and behaves as the
// single empty weight vector.
func NewBox(lo, hi []float64) (*Region, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("geom: box bounds have mismatched dimensions %d and %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return nil, fmt.Errorf("geom: box dimension %d has lo %g > hi %g", i, lo[i], hi[i])
		}
	}
	r := &Region{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}
	r.corners = boxCorners(r.Lo, r.Hi)
	r.pivot = meanOf(r.corners, len(lo))
	return r, nil
}

// NewPolytope returns a general convex region: the box [lo,hi] intersected
// with the extra halfspaces, with the polytope corner list supplied by the
// caller (the paper assumes the region is given as a convex polygon/polytope,
// so its vertices are part of the input).
func NewPolytope(lo, hi []float64, extra []Halfspace, corners [][]float64) (*Region, error) {
	r, err := NewBox(lo, hi)
	if err != nil {
		return nil, err
	}
	if len(corners) == 0 {
		return nil, errors.New("geom: polytope region requires its corner list")
	}
	for _, c := range corners {
		if len(c) != len(lo) {
			return nil, fmt.Errorf("geom: corner dimension %d != region dimension %d", len(c), len(lo))
		}
	}
	r.Extra = append([]Halfspace(nil), extra...)
	r.corners = make([][]float64, len(corners))
	for i, c := range corners {
		r.corners[i] = append([]float64(nil), c...)
	}
	r.pivot = meanOf(r.corners, len(lo))
	return r, nil
}

// Dim returns the dimension of the preference domain (d-1).
func (r *Region) Dim() int { return len(r.Lo) }

// Corners returns the polytope vertices of R. Callers must not mutate.
func (r *Region) Corners() [][]float64 { return r.corners }

// Pivot returns the pivot vector of R: the per-dimension mean of its
// polytope vertices. By convexity the pivot lies inside R.
func (r *Region) Pivot() []float64 { return r.pivot }

// Contains reports whether w lies in R (within tolerance).
func (r *Region) Contains(w []float64) bool {
	for i := range r.Lo {
		if w[i] < r.Lo[i]-Eps || w[i] > r.Hi[i]+Eps {
			return false
		}
	}
	for _, h := range r.Extra {
		if !h.Contains(w) {
			return false
		}
	}
	return true
}

// Dominance classification outcomes for a pair of scores over R
// (Fig. 3 of the paper).
type Dominance int8

const (
	// RDominates: the first score is >= the second everywhere in R.
	RDominates Dominance = iota
	// RDominated: the first score is <= the second everywhere in R.
	RDominated
	// RIncomparable: each side wins somewhere in R.
	RIncomparable
	// REqual: the two scores coincide everywhere in R.
	REqual
)

// Compare classifies the relationship between scores s and t over R by
// evaluating the difference at every polytope vertex of R — exact for
// affine functions over a convex region, O(p·d) as in Section IV-A.
//
// The difference is evaluated in place, in the order s.Sub(t).At(c) would
// evaluate it: the constant difference first, then each coefficient
// difference times the corner. Scores within a few ulps of ±Eps classify
// by that rounding, so evaluating s(c) − t(c) instead would move pairs
// between classes.
func (r *Region) Compare(s, t Score) Dominance {
	geAll, leAll := true, true
	for _, c := range r.corners {
		v := s.Const - t.Const
		for i, sc := range s.Coef {
			v += (sc - t.Coef[i]) * c[i]
		}
		if v < -Eps {
			geAll = false
		}
		if v > Eps {
			leAll = false
		}
		if !geAll && !leAll {
			return RIncomparable
		}
	}
	switch {
	case geAll && leAll:
		return REqual
	case geAll:
		return RDominates
	default:
		return RDominated
	}
}

// Dominates reports whether s r-dominates t over R (s >= t everywhere).
// Scores equal everywhere count as dominance in the weak (paper) sense.
func (r *Region) Dominates(s, t Score) bool {
	c := r.Compare(s, t)
	return c == RDominates || c == REqual
}

func boxCorners(lo, hi []float64) [][]float64 {
	dim := len(lo)
	n := 1 << dim
	out := make([][]float64, 0, n)
	for mask := 0; mask < n; mask++ {
		c := make([]float64, dim)
		for j := 0; j < dim; j++ {
			if mask&(1<<j) != 0 {
				c[j] = hi[j]
			} else {
				c[j] = lo[j]
			}
		}
		out = append(out, c)
	}
	return out
}

func meanOf(points [][]float64, dim int) []float64 {
	m := make([]float64, dim)
	if len(points) == 0 {
		return m
	}
	for _, p := range points {
		for j, v := range p {
			m[j] += v
		}
	}
	for j := range m {
		m[j] /= float64(len(points))
	}
	return m
}
