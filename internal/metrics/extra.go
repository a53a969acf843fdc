package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/flow"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// The paper's footnote 22 lists two further metrics the authors computed
// ("the average path length between any two nodes in a ball of size n, and
// the expected max-flow between the center of a ball of size n and any node
// on the surface of the ball") that "do not contradict our findings but do
// not add to them either". Both are implemented here for completeness and
// for the ablation benches.

// BallPathLengthCurve computes the average pairwise shortest-path length of
// ball subgraphs as a function of ball size. Balls grow on a width-1
// engine.
func BallPathLengthCurve(g *graph.Graph, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	raw := ball.NewEngine(g, 1).BallPointsKernels(cfg, 0,
		func(sub *graph.Graph, _ int, _ *rand.Rand, _ *ball.Kernels) (float64, bool) {
			apl, _ := AveragePathLength(sub, min(sub.NumNodes(), 24))
			return apl, true
		})
	s := stats.Bucketize(raw, stats.BucketRatio)
	s.Name = "ballpathlength"
	return s
}

// SurfaceMaxFlowCurve computes the expected unit-capacity max flow from a
// ball's center to nodes on its surface (nodes at exactly the ball radius),
// as a function of ball size. Balls grow on a width-1 engine, which visits
// them in (center, radius) order on one goroutine, so a single flow RNG
// (seed 29) samples the surface nodes of every ball in that order. The
// surface BFS runs on the engine's kernel bundle and one Dinic network is
// reset per ball.
func SurfaceMaxFlowCurve(g *graph.Graph, cfg ball.Config, flowSamples int) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	if flowSamples <= 0 {
		flowSamples = 8
	}
	r := rand.New(rand.NewSource(29))
	var nw flow.Network
	var surface []int32
	raw := ball.NewEngine(g, 1).BallPointsKernels(cfg, 0,
		func(sub *graph.Graph, radius int, _ *rand.Rand, k *ball.Kernels) (float64, bool) {
			// The center is node 0 of the subgraph (BFS order); surface
			// nodes are those at distance radius.
			k.BFS.BFS(sub, 0)
			surface = surface[:0]
			for v := int32(0); v < int32(sub.NumNodes()); v++ {
				if int(k.BFS.Dist(v)) == radius {
					surface = append(surface, v)
				}
			}
			if len(surface) == 0 {
				return 0, false
			}
			nw.Reset(sub)
			total, samples := 0.0, 0
			for i := 0; i < flowSamples && i < len(surface); i++ {
				t := surface[r.Intn(len(surface))]
				total += float64(nw.MaxFlow(0, t))
				samples++
			}
			return total / float64(samples), true
		})
	s := stats.Bucketize(raw, stats.BucketRatio)
	s.Name = "surfacemaxflow"
	return s
}
