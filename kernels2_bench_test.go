package topocmp

import (
	"math/rand"
	"testing"

	"topocmp/internal/graph"
)

// BenchmarkWideMSBFS sweeps the same 256 sources as four single-word
// 64-source batches versus one four-word strip, counts-only (RunLevels) in
// both arms — the multi-word payoff is the shared frontier amortized over
// four times the sources per edge scan.
func BenchmarkWideMSBFS(b *testing.B) {
	for _, net := range msbfsBenchNets() {
		g := net.Graph
		nsrc := 4 * graph.MSBFSWordBits
		if n := g.NumNodes(); nsrc > n {
			nsrc = n
		}
		perm := rand.New(rand.NewSource(2)).Perm(g.NumNodes())
		sources := make([]int32, nsrc)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		ms := graph.NewMSBFSScratch()
		b.Run("words1/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				for lo := 0; lo < nsrc; lo += graph.MSBFSWordBits {
					hi := lo + graph.MSBFSWordBits
					if hi > nsrc {
						hi = nsrc
					}
					ms.RunLevels(g, sources[lo:hi])
				}
			})
		})
		b.Run("words4/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				ms.RunLevels(g, sources)
			})
		})
	}
}

// BenchmarkBrandes accumulates betweenness from 64 sources the scalar way
// (per-source BFSCounts plus the dependency sweep, the historical
// topBetweenness hot loop) versus one bit-parallel Brandes batch.
func BenchmarkBrandes(b *testing.B) {
	for _, net := range msbfsBenchNets() {
		g := net.Graph
		n := g.NumNodes()
		nsrc := graph.BrandesWidth
		if nsrc > n {
			nsrc = n
		}
		perm := rand.New(rand.NewSource(3)).Perm(n)
		sources := make([]int32, nsrc)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		bc := make([]float64, n)
		delta := make([]float64, n)
		s := graph.NewBFSScratch()
		br := graph.NewBrandesScratch()
		b.Run("scalar/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				clear(bc)
				for _, src := range sources {
					order := s.Counts(g, src)
					clear(delta)
					for i := len(order) - 1; i >= 0; i-- {
						w := order[i]
						dw := s.Dist(w)
						for _, v := range g.Neighbors(w) {
							if s.Dist(v) == dw-1 {
								delta[v] += s.Sigma(v) / s.Sigma(w) * (1 + delta[w])
							}
						}
						if w != src {
							bc[w] += delta[w]
						}
					}
				}
			})
		})
		b.Run("batched/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				clear(bc)
				br.Accumulate(g, sources, bc)
			})
		})
	}
}
