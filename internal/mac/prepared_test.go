package mac

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"roadsocial/internal/geom"
)

// resultEq compares two results cell by cell (witness-independent: same
// ranked communities in the same canonical order).
func resultEq(a, b *Result) error {
	if !communityEq(a.KTCore, b.KTCore) {
		return fmt.Errorf("kt-core %v vs %v", a.KTCore, b.KTCore)
	}
	if len(a.Cells) != len(b.Cells) {
		return fmt.Errorf("%d cells vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if len(a.Cells[i].Ranked) != len(b.Cells[i].Ranked) {
			return fmt.Errorf("cell %d: %d ranked vs %d", i, len(a.Cells[i].Ranked), len(b.Cells[i].Ranked))
		}
		for r := range a.Cells[i].Ranked {
			if !communityEq(a.Cells[i].Ranked[r], b.Cells[i].Ranked[r]) {
				return fmt.Errorf("cell %d rank %d: %v vs %v",
					i, r, a.Cells[i].Ranked[r], b.Cells[i].Ranked[r])
			}
		}
	}
	return nil
}

// TestPreparedMatchesOneShot: searches through a Prepared handle are
// byte-identical to one-shot searches, across regions and J values.
func TestPreparedMatchesOneShot(t *testing.T) {
	net := paperNetwork(t)
	q := paperQuery(t, 2)
	p, err := Prepare(net, q)
	if err != nil {
		t.Fatal(err)
	}
	if !communityEq(p.Members(), Community{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("prepared kt-core = %v", p.Members())
	}
	regions := []*geom.Region{q.Region}
	if r2, err := geom.NewBox([]float64{0.15, 0.25}, []float64{0.3, 0.35}); err == nil {
		regions = append(regions, r2)
	}
	for _, region := range regions {
		for _, j := range []int{1, 2} {
			qq := *q
			qq.Region, qq.J = region, j
			want, err := GlobalSearch(net, &qq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.GlobalSearch(&qq)
			if err != nil {
				t.Fatal(err)
			}
			if err := resultEq(got, want); err != nil {
				t.Fatalf("global j=%d: %v", j, err)
			}
			wantL, err := LocalSearch(net, &qq, LocalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gotL, err := p.LocalSearch(&qq, LocalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := resultEq(gotL, wantL); err != nil {
				t.Fatalf("local j=%d: %v", j, err)
			}
		}
	}
}

// TestPreparedRejectsMismatchedQuery: a Prepared only serves its own
// (Q, k, t) family.
func TestPreparedRejectsMismatchedQuery(t *testing.T) {
	net := paperNetwork(t)
	q := paperQuery(t, 1)
	p, err := Prepare(net, q)
	if err != nil {
		t.Fatal(err)
	}
	bad := *q
	bad.K = 2
	if _, err := p.GlobalSearch(&bad); err == nil {
		t.Fatal("k mismatch must be rejected")
	}
	bad = *q
	bad.T = 10
	if _, err := p.GlobalSearch(&bad); err == nil {
		t.Fatal("t mismatch must be rejected")
	}
	bad = *q
	bad.Q = []int32{1, 2}
	if _, err := p.GlobalSearch(&bad); err == nil {
		t.Fatal("Q mismatch must be rejected")
	}
	// Permuted Q is the same set and must be accepted.
	perm := *q
	perm.Q = []int32{5, 1, 2}
	if _, err := p.GlobalSearch(&perm); err != nil {
		t.Fatalf("permuted Q rejected: %v", err)
	}
}

// TestPreparedConcurrentSearches: many goroutines share one Prepared across
// several regions; every result must match its one-shot reference. Run with
// -race to exercise the region-cache synchronization and the read-only
// sharing of dag/hg/degBase.
func TestPreparedConcurrentSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := randomNetwork(t, rng, 120, 3)
	base := &Query{Q: []int32{0}, K: 3, T: 600, J: 2}
	// Find a feasible anchor query vertex.
	var p *Prepared
	for v := int32(0); v < int32(net.Social.N()); v++ {
		base.Q = []int32{v}
		r, err := geom.NewBox([]float64{0.2, 0.2}, []float64{0.22, 0.22})
		if err != nil {
			t.Fatal(err)
		}
		base.Region = r
		if pp, err := Prepare(net, base); err == nil {
			p = pp
			break
		}
	}
	if p == nil {
		t.Skip("no feasible query in random network")
	}
	// More regions than maxRegionSpaces, to exercise eviction too.
	regions := make([]*geom.Region, maxRegionSpaces+4)
	for i := range regions {
		lo := 0.05 + float64(i)*0.02
		r, err := geom.NewBox([]float64{lo, lo}, []float64{lo + 0.02, lo + 0.02})
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = r
	}
	want := make([]*Result, len(regions))
	for i, r := range regions {
		qq := *base
		qq.Region = r
		res, err := GlobalSearch(net, &qq)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(regions); i++ {
				ri := (g + i) % len(regions)
				qq := *base
				qq.Region = regions[ri]
				res, err := p.GlobalSearch(&qq)
				if err != nil {
					errs <- err
					return
				}
				if err := resultEq(res, want[ri]); err != nil {
					errs <- fmt.Errorf("region %d: %v", ri, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRegionKeyDistinguishesRegions: distinct regions get distinct keys,
// identical regions share one.
func TestRegionKeyDistinguishesRegions(t *testing.T) {
	a1, _ := geom.NewBox([]float64{0.1, 0.2}, []float64{0.3, 0.4})
	a2, _ := geom.NewBox([]float64{0.1, 0.2}, []float64{0.3, 0.4})
	b, _ := geom.NewBox([]float64{0.1, 0.2}, []float64{0.3, 0.41})
	if regionKey(a1) != regionKey(a2) {
		t.Fatal("identical boxes must share a key")
	}
	if regionKey(a1) == regionKey(b) {
		t.Fatal("distinct boxes must not collide")
	}
}
