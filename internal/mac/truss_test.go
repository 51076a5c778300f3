package mac

import (
	"math/rand"
	"testing"
)

func TestGlobalSearchTrussPaperExample(t *testing.T) {
	net := paperNetwork(t)
	// k=4 truss on the paper network: the K4 {v2,v3,v6,v7} plus any vertex
	// whose edges gain enough triangles. Run with Q={v2,v3,v6}.
	q := paperQuery(t, 2)
	q.K = 4 // truss threshold: every edge in >= 2 triangles
	res, err := GlobalSearchTruss(net, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no truss communities found")
	}
	// Every reported community must be a connected k-truss containing Q.
	for _, cell := range res.Cells {
		for _, comm := range cell.Ranked {
			mask := make([]bool, net.Social.N())
			for _, v := range comm {
				mask[v] = true
			}
			comp := net.Social.MaximalConnectedKTruss(q.Q, q.K, mask)
			if len(comp) != len(comm) {
				t.Fatalf("community %v is not its own maximal connected %d-truss (%v)",
					comm, q.K, comp)
			}
		}
	}
}

func TestGlobalSearchTrussMatchesBruteForce(t *testing.T) {
	net := paperNetwork(t)
	q := paperQuery(t, 1)
	q.K = 4
	res, err := GlobalSearchTruss(net, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, w1 := range []float64{0.12, 0.25, 0.45} {
		for _, w2 := range []float64{0.22, 0.38} {
			w := []float64{w1, w2}
			want, err := BruteForceTrussAt(net, q, w)
			if err != nil {
				t.Fatal(err)
			}
			got := res.ResultAt(w)
			if got == nil {
				t.Fatalf("no cell covers %v", w)
			}
			if !communityEq(got.NCMAC(), want[0]) {
				t.Fatalf("at %v: %v, want %v", w, got.NCMAC(), want[0])
			}
		}
	}
}

func TestGlobalSearchTrussRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	checked := 0
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(2)
		net := randomNetwork(t, rng, 14, d)
		region := randomRegion(t, rng, d)
		q := randomQuery(net, rng, 2, 1, 25, region, 1)
		if q == nil {
			continue
		}
		q.K = 3 // truss threshold
		res, err := GlobalSearchTruss(net, q)
		if err == ErrNoCommunity {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range sampleWeights(region, rng, 6) {
			want, err := BruteForceTrussAt(net, q, w)
			if err != nil {
				t.Fatal(err)
			}
			got := res.ResultAt(w)
			if got == nil {
				t.Fatalf("trial %d: no cell covers %v", trial, w)
			}
			if !communityEq(got.NCMAC(), want[0]) {
				t.Fatalf("trial %d at %v: %v, want %v", trial, w, got.NCMAC(), want[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no feasible truss instance generated")
	}
}

func TestTrussNoCommunity(t *testing.T) {
	net := paperNetwork(t)
	q := paperQuery(t, 1)
	q.K = 10 // no 10-truss exists
	if _, err := GlobalSearchTruss(net, q); err != ErrNoCommunity {
		t.Fatalf("expected ErrNoCommunity, got %v", err)
	}
}

// TestTrussStats: the truss search runs on the shared Algorithm 1 DFS, so
// it fills the DFS's effort counters, and they do not depend on the
// parallelism level.
func TestTrussStats(t *testing.T) {
	net := paperNetwork(t)
	q := paperQuery(t, 2)
	q.K = 4
	q.Parallelism = 1
	seq, err := GlobalSearchTruss(net, q)
	if err != nil {
		t.Fatal(err)
	}
	s := seq.Stats
	if s.Hyperplanes == 0 || s.CellsExplored == 0 || s.Deletions == 0 {
		t.Fatalf("truss effort counters not filled: %+v", s)
	}
	qp := *q
	qp.Parallelism = 8
	par, err := GlobalSearchTruss(net, &qp)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats != s {
		t.Fatalf("truss stats differ:\nseq %+v\npar %+v", s, par.Stats)
	}
}
