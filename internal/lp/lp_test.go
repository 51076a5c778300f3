package lp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestSolve1D(t *testing.T) {
	// minimize x over [0,1] with x >= 0.3 (i.e. -x <= -0.3)
	res := Solve([]float64{1}, []Constraint{{A: []float64{-1}, B: -0.3}}, []float64{0}, []float64{1})
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	if math.Abs(res.X[0]-0.3) > 1e-6 {
		t.Fatalf("got x=%g want 0.3", res.X[0])
	}
	// maximize x under x <= 0.7
	v, ok := Maximize([]float64{1}, []Constraint{{A: []float64{1}, B: 0.7}}, []float64{0}, []float64{1})
	if !ok || math.Abs(v-0.7) > 1e-6 {
		t.Fatalf("max got %g ok=%v", v, ok)
	}
}

func TestSolve1DInfeasible(t *testing.T) {
	cons := []Constraint{
		{A: []float64{1}, B: 0.2},   // x <= 0.2
		{A: []float64{-1}, B: -0.5}, // x >= 0.5
	}
	if Feasible(cons, []float64{0}, []float64{1}) {
		t.Fatal("expected infeasible")
	}
}

func TestSolve2DTriangle(t *testing.T) {
	// Feasible region: x+y <= 1, x,y in [0,1]. Minimize -(x+y) -> optimum 1.
	cons := []Constraint{{A: []float64{1, 1}, B: 1}}
	v, ok := Maximize([]float64{1, 1}, cons, []float64{0, 0}, []float64{1, 1})
	if !ok || math.Abs(v-1) > 1e-6 {
		t.Fatalf("got %g ok=%v, want 1", v, ok)
	}
	// Minimize x - y: optimum at (0,1) -> -1.
	res := Solve([]float64{1, -1}, cons, []float64{0, 0}, []float64{1, 1})
	if !res.Feasible || math.Abs(res.Value+1) > 1e-6 {
		t.Fatalf("got %+v, want value -1", res)
	}
}

func TestZeroDimensional(t *testing.T) {
	if !Solve(nil, nil, nil, nil).Feasible {
		t.Fatal("empty problem should be feasible")
	}
	bad := []Constraint{{A: nil, B: -1}}
	if Solve(nil, bad, nil, nil).Feasible {
		t.Fatal("0 <= -1 should be infeasible")
	}
}

func TestDegenerateEquality(t *testing.T) {
	// x <= 0.5 and x >= 0.5 pins x; minimize y.
	cons := []Constraint{
		{A: []float64{1, 0}, B: 0.5},
		{A: []float64{-1, 0}, B: -0.5},
	}
	res := Solve([]float64{0, 1}, cons, []float64{0, 0}, []float64{1, 1})
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	if math.Abs(res.X[0]-0.5) > 1e-6 || math.Abs(res.X[1]) > 1e-6 {
		t.Fatalf("got %v want (0.5, 0)", res.X)
	}
}

// TestRandomFeasiblePoint: constraints generated to contain a known point
// must be feasible, the optimum must not exceed the witness value, and the
// returned optimum must satisfy every constraint.
func TestRandomFeasiblePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 5; dim++ {
		for trial := 0; trial < 200; trial++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.Float64()
			}
			nCons := rng.Intn(12)
			cons := make([]Constraint, 0, nCons)
			for c := 0; c < nCons; c++ {
				a := make([]float64, dim)
				for j := range a {
					a[j] = rng.NormFloat64()
				}
				// Choose B so p satisfies with slack.
				v := 0.0
				for j := range a {
					v += a[j] * p[j]
				}
				cons = append(cons, Constraint{A: a, B: v + rng.Float64()*0.5})
			}
			obj := make([]float64, dim)
			for j := range obj {
				obj[j] = rng.NormFloat64()
			}
			lo := make([]float64, dim)
			hi := make([]float64, dim)
			for j := range hi {
				hi[j] = 1
			}
			res := Solve(obj, cons, lo, hi)
			if !res.Feasible {
				t.Fatalf("dim=%d trial=%d: feasible system reported infeasible", dim, trial)
			}
			witness := 0.0
			for j := range obj {
				witness += obj[j] * p[j]
			}
			if res.Value > witness+1e-6 {
				t.Fatalf("dim=%d trial=%d: optimum %g exceeds witness %g", dim, trial, res.Value, witness)
			}
			for ci, c := range cons {
				if c.Violated(res.X, 1e-6) {
					t.Fatalf("dim=%d trial=%d: optimum violates constraint %d", dim, trial, ci)
				}
			}
			for j := range res.X {
				if res.X[j] < -1e-6 || res.X[j] > 1+1e-6 {
					t.Fatalf("dim=%d trial=%d: optimum outside box: %v", dim, trial, res.X)
				}
			}
		}
	}
}

// TestAgainstVertexEnumeration cross-checks the optimum against brute-force
// enumeration of constraint-intersection vertices in 2D.
func TestAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nCons := 2 + rng.Intn(6)
		cons := make([]Constraint, nCons)
		p := []float64{rng.Float64(), rng.Float64()} // keep feasible
		for c := range cons {
			a := []float64{rng.NormFloat64(), rng.NormFloat64()}
			v := a[0]*p[0] + a[1]*p[1]
			cons[c] = Constraint{A: a, B: v + rng.Float64()*0.3}
		}
		obj := []float64{rng.NormFloat64(), rng.NormFloat64()}
		lo := []float64{0, 0}
		hi := []float64{1, 1}
		res := Solve(obj, cons, lo, hi)
		if !res.Feasible {
			t.Fatalf("trial %d: infeasible", trial)
		}
		// Enumerate candidate vertices: intersections of all pairs among
		// {constraints, box edges}.
		lines := make([]Constraint, 0, nCons+4)
		lines = append(lines, cons...)
		lines = append(lines,
			Constraint{A: []float64{1, 0}, B: hi[0]},
			Constraint{A: []float64{-1, 0}, B: -lo[0]},
			Constraint{A: []float64{0, 1}, B: hi[1]},
			Constraint{A: []float64{0, -1}, B: -lo[1]},
		)
		best := math.Inf(1)
		feasibleAt := func(x []float64) bool {
			for _, c := range lines {
				if c.Violated(x, 1e-7) {
					return false
				}
			}
			return true
		}
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				a, b := lines[i], lines[j]
				det := a.A[0]*b.A[1] - a.A[1]*b.A[0]
				if math.Abs(det) < 1e-12 {
					continue
				}
				x := []float64{
					(a.B*b.A[1] - b.B*a.A[1]) / det,
					(a.A[0]*b.B - b.A[0]*a.B) / det,
				}
				if feasibleAt(x) {
					if v := obj[0]*x[0] + obj[1]*x[1]; v < best {
						best = v
					}
				}
			}
		}
		if math.IsInf(best, 1) {
			continue // degenerate; skip comparison
		}
		if res.Value < best-1e-5 || res.Value > best+1e-5 {
			t.Fatalf("trial %d: solver=%g brute=%g", trial, res.Value, best)
		}
	}
}

// Property: Minimize and Maximize bracket the value at any feasible point.
func TestQuickMinMaxBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(4)
		p := make([]float64, dim)
		obj := make([]float64, dim)
		for j := range p {
			p[j] = r.Float64()
			obj[j] = r.NormFloat64()
		}
		var cons []Constraint
		for c := 0; c < r.Intn(8); c++ {
			a := make([]float64, dim)
			v := 0.0
			for j := range a {
				a[j] = r.NormFloat64()
				v += a[j] * p[j]
			}
			cons = append(cons, Constraint{A: a, B: v + r.Float64()})
		}
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := range hi {
			hi[j] = 1
		}
		minV, ok1 := Minimize(obj, cons, lo, hi)
		maxV, ok2 := Maximize(obj, cons, lo, hi)
		if !ok1 || !ok2 {
			return false
		}
		at := 0.0
		for j := range obj {
			at += obj[j] * p[j]
		}
		return minV <= at+1e-6 && at <= maxV+1e-6
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOrderMatchesFreshShuffle pins the cached insertion orders to the
// shuffle a fresh generator seeded with seidelSeed draws, for every count
// below orderBound (twice, so that the second call reads the cache) and for
// one count above it, from four goroutines at once.
func TestOrderMatchesFreshShuffle(t *testing.T) {
	counts := make([]int, orderBound, orderBound+1)
	for i := range counts {
		counts[i] = i
	}
	counts = append(counts, orderBound+5)
	want := make(map[int][]int, len(counts))
	for _, n := range counts {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		rng := rand.New(rand.NewSource(seidelSeed))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		want[n] = order
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*scratch)
			defer scratchPool.Put(s)
			for _, n := range counts {
				for call := 0; call < 2; call++ {
					if got := s.order(n); !slices.Equal(got, want[n]) {
						t.Errorf("n=%d call %d: order %v, want %v", n, call, got, want[n])
						return
					}
					s.reset()
				}
			}
		}()
	}
	wg.Wait()
}
