package mac

import (
	"math/rand"
	"testing"
)

// TestDeterminism: repeated runs of either algorithm on the same input must
// produce identical outputs (cell count, community sets, rankings) — the
// engines contain no unseeded randomness.
func TestDeterminism(t *testing.T) {
	net := paperNetwork(t)
	q := paperQuery(t, 3)
	first, err := GlobalSearch(net, q)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := GlobalSearch(net, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != len(first.Cells) {
			t.Fatalf("run %d: %d cells vs %d", run, len(res.Cells), len(first.Cells))
		}
		for i := range res.Cells {
			if len(res.Cells[i].Ranked) != len(first.Cells[i].Ranked) {
				t.Fatalf("run %d cell %d: rank depth differs", run, i)
			}
			for r := range res.Cells[i].Ranked {
				if !communityEq(res.Cells[i].Ranked[r], first.Cells[i].Ranked[r]) {
					t.Fatalf("run %d cell %d rank %d differs", run, i, r)
				}
			}
		}
	}
	lfirst, err := LocalSearch(net, q, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := LocalSearch(net, q, LocalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != len(lfirst.Cells) {
			t.Fatalf("LS run %d: %d cells vs %d", run, len(res.Cells), len(lfirst.Cells))
		}
		for i := range res.Cells {
			if !communityEq(res.Cells[i].NCMAC(), lfirst.Cells[i].NCMAC()) {
				t.Fatalf("LS run %d cell %d differs", run, i)
			}
		}
	}
}

// cellsIdentical requires byte-identical output between two results: the
// same number of cells, in the same order, with identical cut lists and
// identical ranked communities.
func cellsIdentical(t *testing.T, label string, a, b []CellResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d cells vs %d", label, len(a), len(b))
	}
	for i := range a {
		ca, cb := a[i].Cell, b[i].Cell
		if len(ca.Cuts) != len(cb.Cuts) {
			t.Fatalf("%s cell %d: %d cuts vs %d", label, i, len(ca.Cuts), len(cb.Cuts))
		}
		for c := range ca.Cuts {
			ha, hb := ca.Cuts[c], cb.Cuts[c]
			if ha.B != hb.B || len(ha.A) != len(hb.A) {
				t.Fatalf("%s cell %d cut %d differs", label, i, c)
			}
			for j := range ha.A {
				if ha.A[j] != hb.A[j] {
					t.Fatalf("%s cell %d cut %d coefficient %d differs", label, i, c, j)
				}
			}
		}
		if len(a[i].Ranked) != len(b[i].Ranked) {
			t.Fatalf("%s cell %d: rank depth %d vs %d", label, i, len(a[i].Ranked), len(b[i].Ranked))
		}
		for r := range a[i].Ranked {
			if !communityEq(a[i].Ranked[r], b[i].Ranked[r]) {
				t.Fatalf("%s cell %d rank %d differs", label, i, r)
			}
		}
	}
}

// TestParallelMatchesSequential: GlobalSearch and LocalSearch with
// Parallelism: 8 must return output identical to Parallelism: 1 — same
// cells, same order, same cuts, same rankings — across random instances.
// The canonical task-path ordering of the engines is what guarantees this;
// run with -race to also exercise the synchronization.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	checked := 0
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(3)
		n := 12 + rng.Intn(16)
		net := randomNetwork(t, rng, n, d)
		region := randomRegion(t, rng, d)
		k := 2 + rng.Intn(2)
		j := 1 + rng.Intn(3)
		q := randomQuery(net, rng, k, 1+rng.Intn(2), 25, region, j)
		if q == nil || q.Validate(net) != nil {
			// The generator can draw regions whose corner weight sums
			// exceed 1 at higher d; those instances are invalid by
			// construction, not interesting here.
			continue
		}
		qSeq := *q
		qSeq.Parallelism = 1
		qPar := *q
		qPar.Parallelism = 8

		gseq, err := GlobalSearch(net, &qSeq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gpar, err := GlobalSearch(net, &qPar)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cellsIdentical(t, "GS", gseq.Cells, gpar.Cells)
		if gseq.Stats != gpar.Stats {
			t.Fatalf("trial %d: GS stats differ:\nseq %+v\npar %+v", trial, gseq.Stats, gpar.Stats)
		}

		lseq, err := LocalSearch(net, &qSeq, LocalOptions{BothStrategies: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lpar, err := LocalSearch(net, &qPar, LocalOptions{BothStrategies: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cellsIdentical(t, "LS", lseq.Cells, lpar.Cells)
		if lseq.Stats != lpar.Stats {
			t.Fatalf("trial %d: LS stats differ:\nseq %+v\npar %+v", trial, lseq.Stats, lpar.Stats)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no instance was checked; generator too restrictive")
	}
}

// TestResultAtOutsideRegion: querying the result at a weight vector outside
// R must return nil rather than a wrong cell.
func TestResultAtOutsideRegion(t *testing.T) {
	net := paperNetwork(t)
	res, err := GlobalSearch(net, paperQuery(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{{0.05, 0.3}, {0.6, 0.3}, {0.3, 0.5}} {
		if got := res.ResultAt(w); got != nil {
			t.Fatalf("weight %v outside R matched a cell", w)
		}
	}
}
