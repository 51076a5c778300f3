package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperVectors are the 3-dimensional attribute vectors of Fig. 2(a).
var paperVectors = map[string][]float64{
	"v1": {8.8, 3.6, 2.2},
	"v2": {5.9, 6.2, 6.0},
	"v3": {2.8, 5.6, 5.1},
	"v4": {9.0, 3.3, 3.4},
	"v5": {5.0, 7.6, 3.1},
	"v6": {5.2, 8.3, 4.3},
	"v7": {2.1, 5.0, 5.1},
}

// paperRegion is R = [0.1,0.5] x [0.2,0.4] from Fig. 2(b).
func paperRegion(t *testing.T) *Region {
	t.Helper()
	r, err := NewBox([]float64{0.1, 0.2}, []float64{0.5, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScoreMatchesWeightedSum(t *testing.T) {
	// S(v7) with w = (0.2, 0.3, 0.5) must be 4.47 (paper Section II-C).
	s := ScoreOf(paperVectors["v7"])
	got := s.At([]float64{0.2, 0.3})
	if math.Abs(got-4.47) > 1e-9 {
		t.Fatalf("S(v7) = %g, want 4.47", got)
	}
	// Cross-check against the full weighted sum for random w and x.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(5)
		x := make([]float64, d)
		for i := range x {
			x[i] = rng.Float64() * 10
		}
		w := make([]float64, d-1)
		rest := 1.0
		for i := range w {
			w[i] = rng.Float64() * rest / float64(d)
			rest -= w[i]
		}
		want := WeightedSum(FullWeights(w), x)
		got := ScoreOf(x).At(w)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("score mismatch: %g vs %g", got, want)
		}
	}
}

func TestGEHalfspace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(4)
		x := make([]float64, d)
		y := make([]float64, d)
		for i := range x {
			x[i] = rng.Float64() * 10
			y[i] = rng.Float64() * 10
		}
		sx, sy := ScoreOf(x), ScoreOf(y)
		hp := sx.GEHalfspace(sy)
		w := make([]float64, d-1)
		for i := range w {
			w[i] = rng.Float64() / float64(d)
		}
		inHS := hp.Contains(w)
		scoreGE := sx.At(w) >= sy.At(w)-1e-9
		if inHS != scoreGE {
			t.Fatalf("halfspace membership %v but score comparison %v", inHS, scoreGE)
		}
	}
}

func TestRegionCompare(t *testing.T) {
	r := paperRegion(t)
	s := func(name string) Score { return ScoreOf(paperVectors[name]) }
	// v2 dominates v7 everywhere in R: v2 = (5.9,6.2,6.0) beats (2.1,5.0,5.1)
	// in every dimension, hence for every weight vector.
	if got := r.Compare(s("v2"), s("v7")); got != RDominates {
		t.Fatalf("v2 vs v7 = %v, want RDominates", got)
	}
	if got := r.Compare(s("v7"), s("v2")); got != RDominated {
		t.Fatalf("v7 vs v2 = %v, want RDominated", got)
	}
	// Identical scores.
	if got := r.Compare(s("v1"), s("v1")); got != REqual {
		t.Fatalf("v1 vs v1 = %v, want REqual", got)
	}
	// v1 vs v5: v1 wins dim 1 (8.8 vs 5.0), v5 wins dims 2,3 — whether one
	// r-dominates depends on R; check consistency against corner sampling.
	checkAgainstSampling(t, r, s("v1"), s("v5"))
	checkAgainstSampling(t, r, s("v4"), s("v3"))
	checkAgainstSampling(t, r, s("v6"), s("v5"))

	// Pairs whose difference at one corner lies within a few ulps of ±Eps
	// classify by rounding, so Compare must round as s.Sub(t).At(c) does.
	rng := rand.New(rand.NewSource(5))
	corners := r.Corners()
	near := 0
	for i := 0; i < 20000; i++ {
		a := Score{Coef: []float64{rng.Float64()*10 - 5, rng.Float64()*10 - 5}, Const: rng.Float64() * 10}
		b := Score{Coef: []float64{rng.Float64()*10 - 5, rng.Float64()*10 - 5}}
		c := corners[rng.Intn(len(corners))]
		target := Eps
		if rng.Intn(2) == 0 {
			target = -Eps
		}
		base := a.Sub(b).At(c)
		b.Const = base - target + float64(rng.Intn(9)-4)*(math.Nextafter(base, math.Inf(1))-base)
		if math.Abs(math.Abs(a.Sub(b).At(c))-Eps) < 1e-14 {
			near++
		}
		if got, want := r.Compare(a, b), compareBySub(r, a, b); got != want {
			t.Fatalf("Compare(%v, %v) = %v, s.Sub(t).At(c) classifies %v", a, b, got, want)
		}
	}
	if near < 10000 {
		t.Fatalf("only %d of 20000 pairs fell near ±Eps", near)
	}
}

// compareBySub is Compare written with an allocated difference score.
func compareBySub(r *Region, s, t Score) Dominance {
	diff := s.Sub(t)
	geAll, leAll := true, true
	for _, c := range r.Corners() {
		v := diff.At(c)
		if v < -Eps {
			geAll = false
		}
		if v > Eps {
			leAll = false
		}
	}
	switch {
	case geAll && leAll:
		return REqual
	case geAll:
		return RDominates
	case leAll:
		return RDominated
	default:
		return RIncomparable
	}
}

func checkAgainstSampling(t *testing.T, r *Region, a, b Score) {
	t.Helper()
	got := r.Compare(a, b)
	geAll, leAll := true, true
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		w := make([]float64, r.Dim())
		for j := range w {
			w[j] = r.Lo[j] + rng.Float64()*(r.Hi[j]-r.Lo[j])
		}
		diff := a.At(w) - b.At(w)
		if diff < -1e-9 {
			geAll = false
		}
		if diff > 1e-9 {
			leAll = false
		}
	}
	var want Dominance
	switch {
	case geAll && leAll:
		want = REqual
	case geAll:
		want = RDominates
	case leAll:
		want = RDominated
	default:
		want = RIncomparable
	}
	if got != want {
		t.Fatalf("Compare = %v, sampling says %v", got, want)
	}
}

func TestRegionPivotInside(t *testing.T) {
	r := paperRegion(t)
	if !r.Contains(r.Pivot()) {
		t.Fatal("pivot must lie inside R")
	}
	p := r.Pivot()
	if math.Abs(p[0]-0.3) > 1e-9 || math.Abs(p[1]-0.3) > 1e-9 {
		t.Fatalf("pivot = %v, want (0.3, 0.3)", p)
	}
}

func TestCellSplitAndWitness(t *testing.T) {
	r := paperRegion(t)
	cell := NewCell(r)
	if !cell.Feasible() {
		t.Fatal("root cell must be feasible")
	}
	w := cell.Witness()
	if !r.Contains(w) {
		t.Fatalf("witness %v outside region", w)
	}
	// Split by the vertical plane w1 = 0.3.
	hp := Halfspace{A: []float64{1, 0}, B: 0.3}
	below, above := cell.Split(hp)
	if !below.Feasible() || !above.Feasible() {
		t.Fatal("both halves must be feasible")
	}
	if wb := below.Witness(); wb[0] > 0.3 {
		t.Fatalf("below witness %v on wrong side", wb)
	}
	if wa := above.Witness(); wa[0] < 0.3 {
		t.Fatalf("above witness %v on wrong side", wa)
	}
	// A plane outside R must not split.
	if side := cell.Classify(Halfspace{A: []float64{1, 0}, B: 0.9}); side != SideBelow {
		t.Fatalf("classify vs w1<=0.9: %v, want SideBelow", side)
	}
	if side := cell.Classify(Halfspace{A: []float64{1, 0}, B: 0.05}); side != SideAbove {
		t.Fatalf("classify vs w1<=0.05: %v, want SideAbove", side)
	}
}

func TestPartitionTreeBasics(t *testing.T) {
	r := paperRegion(t)
	tree := NewPartitionTree(NewCell(r))
	if got := tree.LeafCount(); got != 1 {
		t.Fatalf("fresh tree has %d leaves, want 1", got)
	}
	hp := Halfspace{A: []float64{1, 0}, B: 0.3}
	if !tree.Insert(hp) {
		t.Fatal("first insert must succeed")
	}
	if tree.Insert(hp) {
		t.Fatal("duplicate insert must be a no-op")
	}
	// The same supporting plane with flipped orientation is also a duplicate.
	if tree.Insert(hp.Negate()) {
		t.Fatal("negated duplicate insert must be a no-op")
	}
	if got := tree.LeafCount(); got != 2 {
		t.Fatalf("after one split: %d leaves, want 2", got)
	}
	// Non-crossing plane: no growth.
	tree.Insert(Halfspace{A: []float64{1, 0}, B: 0.95})
	if got := tree.LeafCount(); got != 2 {
		t.Fatalf("non-crossing insert changed leaves to %d", got)
	}
	tree.Insert(Halfspace{A: []float64{0, 1}, B: 0.3})
	if got := tree.LeafCount(); got != 4 {
		t.Fatalf("after grid split: %d leaves, want 4", got)
	}
}

// TestPartitionCoversRegion: after random insertions, every sampled point of
// R lies in exactly one leaf cell.
func TestPartitionCoversRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(3)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := range hi {
			lo[j] = 0.05
			hi[j] = 0.05 + 0.4/float64(dim)
		}
		r, err := NewBox(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		tree := NewPartitionTree(NewCell(r))
		for h := 0; h < 8; h++ {
			a := make([]float64, dim)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			// Plane passing near the region center.
			b := 0.0
			for j := range a {
				b += a[j] * (lo[j] + hi[j]) / 2
			}
			b += rng.NormFloat64() * 0.05
			tree.Insert(Halfspace{A: a, B: b})
		}
		leaves := tree.Leaves()
		for s := 0; s < 200; s++ {
			w := make([]float64, dim)
			for j := range w {
				w[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			count := 0
			for _, c := range leaves {
				inside := true
				for _, h := range c.Cuts {
					if h.Eval(w) > 1e-7 {
						inside = false
						break
					}
				}
				if inside {
					count++
				}
			}
			if count < 1 {
				t.Fatalf("trial %d: point %v not covered by any leaf", trial, w)
			}
			// Points on cut boundaries may belong to two closed cells; more
			// than two indicates a bookkeeping bug.
			if count > 2 {
				t.Fatalf("trial %d: point %v covered by %d leaves", trial, w, count)
			}
		}
	}
}

// Property: witness of every leaf is inside the leaf and the region.
func TestQuickWitnessInsideLeaf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(3)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := range hi {
			lo[j] = 0.1
			hi[j] = 0.1 + 0.3/float64(dim)
		}
		r, err := NewBox(lo, hi)
		if err != nil {
			return false
		}
		tree := NewPartitionTree(NewCell(r))
		for h := 0; h < 5; h++ {
			a := make([]float64, dim)
			b := 0.0
			for j := range a {
				a[j] = rng.NormFloat64()
				b += a[j] * (lo[j] + hi[j]) / 2
			}
			tree.Insert(Halfspace{A: a, B: b + rng.NormFloat64()*0.03})
		}
		for _, c := range tree.Leaves() {
			w := c.Witness()
			if w == nil || !r.Contains(w) {
				return false
			}
			for _, h := range c.Cuts {
				if h.Eval(w) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHalfspaceKey(t *testing.T) {
	h1 := Halfspace{A: []float64{1, 2}, B: 3}
	h2 := Halfspace{A: []float64{2, 4}, B: 6}     // positive scaling
	h3 := Halfspace{A: []float64{-1, -2}, B: -3}  // flipped orientation
	h4 := Halfspace{A: []float64{1, 2}, B: 3.001} // different plane
	if h1.Key() != h2.Key() {
		t.Fatal("scaled halfspaces must share a key")
	}
	if h1.Key() != h3.Key() {
		t.Fatal("negated halfspaces must share a key")
	}
	if h1.Key() == h4.Key() {
		t.Fatal("distinct planes must have distinct keys")
	}
}

func TestZeroDimensionalRegion(t *testing.T) {
	// d = 1 attribute: the preference domain is a single point.
	r, err := NewBox(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Corners()) != 1 {
		t.Fatalf("0-dim region has %d corners, want 1", len(r.Corners()))
	}
	a := ScoreOf([]float64{5})
	b := ScoreOf([]float64{3})
	if r.Compare(a, b) != RDominates {
		t.Fatal("5 must dominate 3 in 1-attribute networks")
	}
	cell := NewCell(r)
	if !cell.Feasible() || cell.Witness() == nil {
		t.Fatal("0-dim cell must be feasible with a witness")
	}
}
