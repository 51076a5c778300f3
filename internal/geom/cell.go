package geom

import (
	"roadsocial/internal/lp"
)

// Cell is a convex sub-polytope of the region R, produced by cutting R with
// score-comparison hyperplanes during arrangement construction. It is stored
// in H-representation: the region supplies the box (and any polytope extras),
// and Cuts lists the halfspaces accumulated by Partition splits.
//
// A Cell caches a witness point strictly interior to it (the Chebyshev
// center) so that, once an arrangement guarantees no relevant hyperplane
// crosses the cell, score comparisons inside the cell reduce to O(d)
// evaluations at the witness.
type Cell struct {
	Region *Region
	Cuts   []Halfspace

	witness   []float64
	evaluated bool
	feasible  bool
}

// NewCell returns the cell covering all of region r.
func NewCell(r *Region) *Cell {
	return &Cell{Region: r}
}

// Dim returns the preference-domain dimension.
func (c *Cell) Dim() int { return c.Region.Dim() }

// constraints assembles the LP constraint list (region extras + cuts).
func (c *Cell) constraints() []lp.Constraint {
	cons := make([]lp.Constraint, 0, len(c.Region.Extra)+len(c.Cuts))
	for _, h := range c.Region.Extra {
		cons = append(cons, lp.Constraint{A: h.A, B: h.B})
	}
	for _, h := range c.Cuts {
		cons = append(cons, lp.Constraint{A: h.A, B: h.B})
	}
	return cons
}

// Feasible reports whether the cell is non-empty. The result is cached.
func (c *Cell) Feasible() bool {
	c.evaluate()
	return c.feasible
}

// Witness returns a point inside the cell maximizing the minimum slack (the
// Chebyshev center). It returns nil for infeasible cells. For cells that are
// full-dimensional the witness is strictly interior; for degenerate
// (lower-dimensional) cells it lies on the cell. The result is cached.
func (c *Cell) Witness() []float64 {
	c.evaluate()
	return c.witness
}

func (c *Cell) evaluate() {
	if c.evaluated {
		return
	}
	c.evaluated = true
	dim := c.Dim()
	if dim == 0 {
		c.feasible = true
		c.witness = []float64{}
		for _, h := range c.Cuts {
			if 0 > h.B+Eps {
				c.feasible = false
				c.witness = nil
				return
			}
		}
		return
	}
	// Chebyshev center: variables (w_1..w_dim, rad); maximize rad subject to
	//   h.A·w + ‖h.A‖·rad <= h.B   for each halfspace
	//   lo_j + rad <= w_j <= hi_j − rad  (as general constraints)
	//   0 <= rad <= maxSide
	r := c.Region
	maxSide := 0.0
	for j := range r.Lo {
		if s := r.Hi[j] - r.Lo[j]; s > maxSide {
			maxSide = s
		}
	}
	var cons []lp.Constraint
	addHS := func(h Halfspace) {
		a := make([]float64, dim+1)
		copy(a, h.A)
		a[dim] = h.Norm()
		cons = append(cons, lp.Constraint{A: a, B: h.B})
	}
	for _, h := range r.Extra {
		addHS(h)
	}
	for _, h := range c.Cuts {
		addHS(h)
	}
	for j := 0; j < dim; j++ {
		up := make([]float64, dim+1)
		up[j], up[dim] = 1, 1
		cons = append(cons, lp.Constraint{A: up, B: r.Hi[j]}) // w_j + rad <= hi_j
		dn := make([]float64, dim+1)
		dn[j], dn[dim] = -1, 1
		cons = append(cons, lp.Constraint{A: dn, B: -r.Lo[j]}) // -w_j + rad <= -lo_j
	}
	obj := make([]float64, dim+1)
	obj[dim] = -1 // maximize rad
	lo := make([]float64, dim+1)
	hi := make([]float64, dim+1)
	copy(lo, r.Lo)
	copy(hi, r.Hi)
	lo[dim], hi[dim] = 0, maxSide
	res := lp.Solve(obj, cons, lo, hi)
	if !res.Feasible {
		c.feasible = false
		return
	}
	c.feasible = true
	c.witness = res.X[:dim]
}

// Side classifies the cell against the supporting hyperplane of h.
type Side int8

const (
	// SideBelow: the cell lies entirely in h (A·w <= B).
	SideBelow Side = iota
	// SideAbove: the cell lies entirely in the complement closure (A·w >= B).
	SideAbove
	// SideSplit: the hyperplane properly crosses the cell.
	SideSplit
)

// Classify determines on which side of hyperplane h the cell lies. A fast
// path evaluates the hyperplane's range over the region's bounding box
// analytically (the box contains the cell), which resolves the vast
// majority of non-crossing hyperplanes without LP solves; only genuinely
// ambiguous cases pay for up to two LPs.
func (c *Cell) Classify(h Halfspace) Side {
	c.evaluate()
	if !c.feasible {
		return SideBelow // arbitrary; callers skip infeasible cells
	}
	norm := h.Norm()
	if norm <= Eps {
		if h.B >= -Eps {
			return SideBelow
		}
		return SideAbove
	}
	// Analytic bounding-box ranges: min/max of A·w over [Lo,Hi].
	boxMin, boxMax := -h.B, -h.B
	for j, a := range h.A {
		if a >= 0 {
			boxMin += a * c.Region.Lo[j]
			boxMax += a * c.Region.Hi[j]
		} else {
			boxMin += a * c.Region.Hi[j]
			boxMax += a * c.Region.Lo[j]
		}
	}
	if boxMax <= cellSideEps {
		return SideBelow
	}
	if boxMin >= -cellSideEps {
		return SideAbove
	}
	cons := c.constraints()
	dim := c.Dim()
	lo, hi := c.Region.Lo, c.Region.Hi
	if dim == 0 {
		if h.B >= -Eps {
			return SideBelow
		}
		return SideAbove
	}
	maxV, ok := lp.Maximize(h.A, cons, lo, hi)
	if !ok {
		return SideBelow
	}
	if maxV <= h.B+cellSideEps {
		return SideBelow
	}
	minV, _ := lp.Minimize(h.A, cons, lo, hi)
	if minV >= h.B-cellSideEps {
		return SideAbove
	}
	return SideSplit
}

// cellSideEps is the tolerance for declaring a cell entirely on one side of
// a hyperplane. Slightly looser than Eps so that hairline slivers created by
// floating-point noise are absorbed rather than split again.
const cellSideEps = 1e-7

// Split cuts the cell with the supporting hyperplane of h, returning the
// below part (cell ∩ {A·w <= B}) and the above part (cell ∩ {A·w >= B}).
// Either may be infeasible; callers should check Feasible.
func (c *Cell) Split(h Halfspace) (below, above *Cell) {
	below = &Cell{Region: c.Region, Cuts: appendHS(c.Cuts, h)}
	above = &Cell{Region: c.Region, Cuts: appendHS(c.Cuts, h.Negate())}
	return below, above
}

func appendHS(cuts []Halfspace, h Halfspace) []Halfspace {
	out := make([]Halfspace, len(cuts)+1)
	copy(out, cuts)
	out[len(cuts)] = h
	return out
}
