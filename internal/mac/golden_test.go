//go:build amd64 && !amd64.v3

// FMA fusion on other targets rounds scores differently, which moves cuts
// and witnesses by an ulp; the recorded digest holds for plain amd64 only.

package mac_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"math/rand"
	"testing"

	"roadsocial/internal/exp"
	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
)

// goldenDigest is the SHA-256 of every answer TestGoldenDigest asks for. It
// changes only when an answer does: an engine step that is meant to be
// faster, not different, must leave it as it is.
const goldenDigest = "fe837c9870be4893902e27cdac54ea2e8a8307118e794b263ff625d334de2bfe"

// TestGoldenDigest runs a fixed set of searches on two catalog datasets at
// parallelism 1 and 4 and compares a SHA-256 over their cuts, witnesses,
// ranked lists and Stats with goldenDigest: the core engine's global search
// at J=1 and J=3 and its local search, and the truss engine's global search
// at J=2.
func TestGoldenDigest(t *testing.T) {
	searches := []struct {
		name string
		j    int
		run  func(*mac.Network, *mac.Query) (*mac.Result, error)
	}{
		{"global", 1, mac.GlobalSearch},
		{"global", 3, mac.GlobalSearch},
		{"local", 1, func(net *mac.Network, q *mac.Query) (*mac.Result, error) {
			return mac.LocalSearch(net, q, mac.LocalOptions{})
		}},
		{"truss", 2, mac.GlobalSearchTruss},
	}
	for _, par := range []int{1, 4} {
		h := sha256.New()
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
			rng := rand.New(rand.NewSource(29))
			for _, k := range []int{4, 5} {
				for _, qs := range gen.Queries(in.Net, k, in.TDefault, 2, 4, rng) {
					for _, s := range searches {
						q := &mac.Query{Q: qs, K: k, T: in.TDefault, Region: in.Region(exp.DefaultSigma), J: s.j, Parallelism: par}
						res, err := s.run(in.Net, q)
						if errors.Is(err, mac.ErrNoCommunity) {
							putInts(h, -1)
							continue
						}
						if err != nil {
							t.Fatalf("%s %s J=%d k=%d Q=%v: %v", name, s.name, s.j, k, qs, err)
						}
						digestResult(h, res)
						cells += len(res.Cells)
					}
				}
			}
		}
		if cells == 0 {
			t.Fatal("no search returned a cell")
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
			t.Errorf("parallelism %d: digest %s over %d cells, want %s", par, got, cells, goldenDigest)
		}
	}
}

// digestResult writes every cell's cuts, witness and ranked lists, then the
// Stats, each list prefixed by its length.
func digestResult(h hash.Hash, res *mac.Result) {
	putInts(h, len(res.Cells))
	for _, cr := range res.Cells {
		putInts(h, len(cr.Cell.Cuts))
		for _, c := range cr.Cell.Cuts {
			putFloats(h, c.A)
			putFloats(h, []float64{c.B})
		}
		putFloats(h, cr.Cell.Witness())
		putInts(h, len(cr.Ranked))
		for _, c := range cr.Ranked {
			putInts(h, len(c))
			for _, v := range c {
				putInts(h, int(v))
			}
		}
	}
	s := res.Stats
	putInts(h, s.KTCoreSize, s.KTCoreEdges, s.DomGraphArcs, s.Partitions, s.Hyperplanes,
		s.CellsExplored, s.Deletions, s.Candidates, s.Promising, s.CascadeSims)
}

func putInts(h hash.Hash, vs ...int) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
}

func putFloats(h hash.Hash, vs []float64) {
	putInts(h, len(vs))
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}
