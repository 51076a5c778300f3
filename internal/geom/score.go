// Package geom implements the preference-domain geometry of the MAC paper:
// scores as affine functions of the reduced (d-1)-dimensional weight vector,
// halfspaces and hyperplanes induced by score comparisons, the user region R,
// convex arrangement cells, r-dominance tests (Section IV-A), and the
// Partition binary tree of half-space arrangements (Algorithm 2).
//
// Conventions. A weight vector w has d components in (0,1) summing to 1; the
// last weight is dropped, so all geometry lives in dimension dim = d-1. The
// score of an attribute vector x = (x_1..x_d) is
//
//	S(x)(w) = x_d + Σ_{i<d} w_i·(x_i − x_d),
//
// an affine function of w represented by Score{Coef, Const}.
package geom

// Score is an affine function Coef·w + Const over the preference domain.
type Score struct {
	Coef  []float64
	Const float64
}

// ScoreOf converts a d-dimensional attribute vector into its affine score
// function over the (d-1)-dimensional preference domain.
func ScoreOf(x []float64) Score {
	if len(x) == 0 {
		return Score{}
	}
	return ScoreInto(make([]float64, len(x)-1), x)
}

// ScoreInto is ScoreOf writing the coefficients into buf, which must hold at
// least len(x)-1 values; the returned score aliases buf.
func ScoreInto(buf, x []float64) Score {
	d := len(x)
	if d == 0 {
		return Score{}
	}
	xd := x[d-1]
	coef := buf[:d-1]
	for i := range coef {
		coef[i] = x[i] - xd
	}
	return Score{Coef: coef, Const: xd}
}

// At evaluates the score at weight vector w (reduced form, len = dim).
func (s Score) At(w []float64) float64 {
	v := s.Const
	for i, c := range s.Coef {
		v += c * w[i]
	}
	return v
}

// Dim returns the dimension of the preference domain the score lives in.
func (s Score) Dim() int { return len(s.Coef) }

// Sub returns the affine function s - t. Region.Compare evaluates it in
// place, and its tests hold Compare to Sub(...).At's rounding.
func (s Score) Sub(t Score) Score {
	coef := make([]float64, len(s.Coef))
	for i := range coef {
		coef[i] = s.Coef[i] - t.Coef[i]
	}
	return Score{Coef: coef, Const: s.Const - t.Const}
}

// GEHalfspace returns the halfspace of the preference domain where s >= t,
// i.e. the halfspace hp+ of the supporting hyperplane S(s) = S(t).
// s >= t  ⇔  (t.Coef − s.Coef)·w <= s.Const − t.Const.
func (s Score) GEHalfspace(t Score) Halfspace {
	a := make([]float64, len(s.Coef))
	for i := range a {
		a[i] = t.Coef[i] - s.Coef[i]
	}
	return Halfspace{A: a, B: s.Const - t.Const}
}

// FullWeights expands a reduced (d-1)-dimensional weight vector into the full
// d-dimensional weight vector (appending w_d = 1 - Σ w_i).
func FullWeights(w []float64) []float64 {
	full := make([]float64, len(w)+1)
	rest := 1.0
	for i, wi := range w {
		full[i] = wi
		rest -= wi
	}
	full[len(w)] = rest
	return full
}

// WeightedSum computes Σ w_i·x_i for a full d-dimensional weight vector.
func WeightedSum(w, x []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * x[i]
	}
	return s
}
