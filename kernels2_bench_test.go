package topocmp

import (
	"math/rand"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/graph"
)

// BenchmarkWideMSBFS sweeps the same 256 sources as four single-word
// 64-source batches versus one four-word strip, counts-only (RunLevels) in
// both arms — the multi-word payoff is the shared frontier amortized over
// four times the sources per edge scan. Its words4/RL@full-rl row is one
// 256-source strip on the measured RL graph at the full-rl preset, seed 1
// (170,555 nodes): the unit of work of topobench's fullrl workload, which
// sweeps two such strips. Each graph's level graph is built outside the
// timed loop, as the ball engine builds it once per graph.
func BenchmarkWideMSBFS(b *testing.B) {
	wideSources := func(g *graph.Graph) []int32 {
		nsrc := min(4*graph.MSBFSWordBits, g.NumNodes())
		perm := rand.New(rand.NewSource(2)).Perm(g.NumNodes())
		sources := make([]int32, nsrc)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		return sources
	}
	ms := graph.NewMSBFSScratch()
	for _, net := range msbfsBenchNets() {
		g := net.Graph
		lg := graph.NewLevelGraph(g)
		sources := wideSources(g)
		nsrc := len(sources)
		b.Run("words1/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				for lo := 0; lo < nsrc; lo += graph.MSBFSWordBits {
					hi := min(lo+graph.MSBFSWordBits, nsrc)
					ms.RunLevels(lg, sources[lo:hi])
				}
			})
		})
		b.Run("words4/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				ms.RunLevels(lg, sources)
			})
		})
	}
	var fullRL *graph.Graph // built on first entry: the harness re-enters to size b.N
	var fullLG *graph.LevelGraph
	b.Run("words4/RL@full-rl", func(b *testing.B) {
		if fullRL == nil {
			fullRL = core.BuildMeasured(core.PaperSetOptions{Seed: 1, Scale: core.ScalePresets["full-rl"]}).RL.Graph
			fullLG = graph.NewLevelGraph(fullRL)
		}
		sources := wideSources(fullRL)
		benchOnGraph(b, "BENCH_kernels2.json", fullRL, "RL@full-rl", len(sources), func() {
			ms.RunLevels(fullLG, sources)
		})
	})
}

// BenchmarkBrandes accumulates betweenness from 64 sources in one
// bit-parallel Brandes batch, the distortion election's one route.
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
		br := graph.NewBrandesScratch()
		b.Run("batched/"+net.Name, func(b *testing.B) {
			benchOnGraph(b, "BENCH_kernels2.json", g, net.Name, nsrc, func() {
				clear(bc)
				br.Accumulate(g, sources, bc)
			})
		})
	}
}
