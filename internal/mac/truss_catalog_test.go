package mac_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"roadsocial/internal/exp"
	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
)

// TestTrussMatchesBruteForceCatalog checks the truss search against its
// oracle on catalog datasets, whose searches visit many more leaves than the
// 14-vertex random networks: every returned cell's ranked list (GS-T at
// J=2) must equal BruteForceTrussAt's at the cell's witness, rank by rank,
// and the cells must cover random weight vectors of the region with the
// oracle's ranked list there.
func TestTrussMatchesBruteForceCatalog(t *testing.T) {
	cells := 0
	for _, name := range []string{"SF+Slashdot", "FL+Lastfm"} {
		spec, err := exp.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := spec.Build(exp.Tiny, exp.DefaultD, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		for _, k := range []int{4, 5} {
			for _, qs := range gen.Queries(in.Net, k, in.TDefault, 2, 4, rng) {
				q := &mac.Query{Q: qs, K: k, T: in.TDefault, Region: in.Region(exp.DefaultSigma), J: 2}
				res, err := mac.GlobalSearchTruss(in.Net, q)
				if errors.Is(err, mac.ErrNoCommunity) {
					continue
				}
				if err != nil {
					t.Fatalf("%s k=%d Q=%v: %v", name, k, qs, err)
				}
				for i, cr := range res.Cells {
					w := cr.Cell.Witness()
					want, err := mac.BruteForceTrussAt(in.Net, q, w)
					if err != nil {
						t.Fatal(err)
					}
					if !rankedEqual(cr.Ranked, want) {
						t.Fatalf("%s k=%d Q=%v cell %d at %v: %v, want %v", name, k, qs, i, w, cr.Ranked, want)
					}
					cells++
				}
				for range 3 {
					w := make([]float64, q.Region.Dim())
					for d := range w {
						w[d] = q.Region.Lo[d] + rng.Float64()*(q.Region.Hi[d]-q.Region.Lo[d])
					}
					want, err := mac.BruteForceTrussAt(in.Net, q, w)
					if err != nil {
						t.Fatal(err)
					}
					cr := res.ResultAt(w)
					if cr == nil || !rankedEqual(cr.Ranked, want) {
						t.Fatalf("%s k=%d Q=%v at %v: cell %v, want %v", name, k, qs, w, cr, want)
					}
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("no truss cell was checked")
	}
	t.Logf("checked %d cells", cells)
}

func rankedEqual(got, want []mac.Community) bool {
	return slices.EqualFunc(got, want, func(a, b mac.Community) bool { return slices.Equal(a, b) })
}
