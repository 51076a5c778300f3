package road

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestGTreeCancelMidTraversal mirrors TestDijkstraCancelMidRun for the
// index-accelerated oracle: a canceled G-tree traversal returns ErrCanceled
// without a partial result, and its cancellation latency is bounded by the
// per-frame poll of the assemble loop — a pre-closed cancel returns in a
// small fraction of the full traversal time instead of visiting every leaf
// first.
func TestGTreeCancelMidTraversal(t *testing.T) {
	const n = 120000
	g := chainGraph(t, n)
	gt := BuildGTree(g, 0)

	// Reference: the full, uncancelable traversal.
	start := time.Now()
	full, err := gt.sourceDistances(gt.getScratch(), 0, math.Inf(1), nil)
	fullDur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if full[n-1] != float64(n-1) {
		t.Fatalf("chain distance = %g, want %d", full[n-1], n-1)
	}

	// An open cancel behaves exactly like the plain traversal.
	open := make(chan struct{})
	dist, err := gt.sourceDistances(gt.getScratch(), 0, math.Inf(1), open)
	if err != nil || dist[n-1] != float64(n-1) {
		t.Fatalf("open cancel: err=%v dist=%v", err, dist[n-1])
	}

	// Pre-closed cancel: the traversal must abandon within one frame of the
	// descend loop, far before the full walk finishes. The wall-clock bound
	// is generous (half the measured full run) so scheduler noise cannot
	// flake it.
	cancel := make(chan struct{})
	close(cancel)
	start = time.Now()
	dist, err = gt.sourceDistances(gt.getScratch(), 0, math.Inf(1), cancel)
	gotDur := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled traversal: err=%v, want ErrCanceled", err)
	}
	if dist != nil {
		t.Fatal("canceled traversal must not deliver a partial result")
	}
	if fullDur > 10*time.Millisecond && gotDur > fullDur/2 {
		t.Fatalf("cancellation latency %v not bounded (full traversal %v)", gotDur, fullDur)
	}
}

// TestGTreeWithCancelOracle: the Cancelable view propagates cancellation
// through QueryDistances like the plain RangeQuerier does, and a nil cancel
// returns the shared index itself.
func TestGTreeWithCancelOracle(t *testing.T) {
	const n = 50000
	g := chainGraph(t, n)
	gt := BuildGTree(g, 0)

	if got := gt.WithCancel(nil); got != Oracle(gt) {
		t.Fatal("WithCancel(nil) must return the index itself")
	}

	users := []Location{VertexLocation(n - 1)}
	queries := []Location{VertexLocation(0)}

	// Open cancel: identical answer to the plain index.
	open := make(chan struct{})
	want, err := gt.QueryDistances(queries, users, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := gt.WithCancel(open).QueryDistances(queries, users, math.Inf(1))
	if err != nil || got[0] != want[0] {
		t.Fatalf("open-cancel view: err=%v got=%v want=%v", err, got, want)
	}

	// Cancel mid-run: close while the traversal is in flight; the view must
	// return ErrCanceled rather than a distance vector.
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := gt.WithCancel(cancel).QueryDistances(queries, users, math.Inf(1))
		done <- err
	}()
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled G-tree query did not return in time")
	}
}
