package mac

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchInstance builds one fixed mid-size instance for the engine benches.
func benchInstance(b *testing.B) (*Network, *Query) {
	rng := rand.New(rand.NewSource(20210421))
	net := randomNetwork(b, rng, 48, 3)
	region := randomRegion(b, rng, 3)
	q := randomQuery(net, rng, 3, 2, 30, region, 3)
	if q == nil {
		b.Skip("no feasible query on bench instance")
	}
	return net, q
}

// BenchmarkGlobalSearchParallelism measures the GS engine at parallelism 1
// vs NumCPU on the same instance; allocs/op tracks the allocation-lean
// scratch work (compare with benchstat across commits).
func BenchmarkGlobalSearchParallelism(b *testing.B) {
	net, q := benchInstance(b)
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			qq := *q
			qq.Parallelism = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GlobalSearch(net, &qq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalSearchParallelism measures the LS pipeline (expand, verify,
// refine) at parallelism 1 vs NumCPU.
func BenchmarkLocalSearchParallelism(b *testing.B) {
	net, q := benchInstance(b)
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			qq := *q
			qq.Parallelism = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LocalSearch(net, &qq, LocalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegionSpace measures one region build on the bench instance's
// prepared state: the r-dominance DAG, then the localized graph.
func BenchmarkRegionSpace(b *testing.B) {
	net, q := benchInstance(b)
	p, err := Prepare(net, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.buildRegionSpace(q); err != nil {
			b.Fatal(err)
		}
	}
}
