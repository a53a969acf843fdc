package topocmp

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/graph"
)

var msbfsNetsOnce struct {
	sync.Once
	nets []*core.Network
}

// msbfsBenchNets builds the benchmark's graph families once: the measured
// RL and AS graphs (the acceptance workload) plus one generated and two
// canonical families.
func msbfsBenchNets() []*core.Network {
	msbfsNetsOnce.Do(func() {
		opts := core.PaperSetOptions{Seed: 1, Scale: 0.3}
		ms := core.BuildMeasured(opts)
		msbfsNetsOnce.nets = []*core.Network{
			ms.RL, ms.AS,
			core.BuildNetwork("PLRG", opts),
			core.BuildNetwork("Mesh", opts),
			core.BuildNetwork("Tree", opts),
		}
	})
	return msbfsNetsOnce.nets
}

// msbfsRouteNets are the families whose distance sweeps batch only because
// the ball engine routes on the spread of distances rather than the
// diameter: RL and Tiers at scale 1.0, seed 1, named RL@1.0 and Tiers@1.0.
// Their diameters (42 and 45) pass ball.MSBFSDiameterCutoff and their
// 90th-percentile distances from node 0 (14 and 29) do not.
func msbfsRouteNets() []*core.Network {
	opts := core.PaperSetOptions{Seed: 1, Scale: 1.0}
	rl, tiers := *core.BuildMeasured(opts).RL, *core.BuildNetwork("Tiers", opts)
	rl.Name, tiers.Name = "RL@1.0", "Tiers@1.0"
	return []*core.Network{&rl, &tiers}
}

// BenchmarkMSBFS compares one full 64-source distance sweep done the scalar
// way (64 reusable-scratch BFS passes, the pre-kernel hot path of the
// expansion/eccentricity/path-length metrics) against one bit-parallel
// MSBFS batch over the same sources in the level-counts mode those metrics
// read.
func BenchmarkMSBFS(b *testing.B) {
	for _, n := range slices.Concat(msbfsBenchNets(), msbfsRouteNets()) {
		g := n.Graph
		r := rand.New(rand.NewSource(7))
		perm := r.Perm(g.NumNodes())
		sources := make([]int32, graph.MSBFSWidth)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		b.Run("scalar/"+n.Name, func(b *testing.B) {
			s := graph.NewBFSScratch()
			benchOnGraph(b, "BENCH_msbfs.json", g, n.Name, len(sources), func() {
				for _, src := range sources {
					s.BFS(g, src)
				}
			})
		})
		b.Run("batched/"+n.Name, func(b *testing.B) {
			ms := graph.NewMSBFSScratch()
			benchOnGraph(b, "BENCH_msbfs.json", g, n.Name, len(sources), func() {
				ms.RunLevels(g, sources)
			})
		})
	}
}
