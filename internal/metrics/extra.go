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
// ball subgraphs as a function of ball size.
func BallPathLengthCurve(g *graph.Graph, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	var raw []stats.Point
	ball.Visit(g, cfg, func(b ball.Ball) {
		sub := ball.Subgraph(g, b)
		sources := sub.NumNodes()
		if sources > 24 {
			sources = 24
		}
		raw = append(raw, stats.Point{
			X: float64(sub.NumNodes()),
			Y: AveragePathLength(sub, sources),
		})
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "ballpathlength"
	return s
}

// SurfaceMaxFlowCurve computes the expected unit-capacity max flow from a
// ball's center to nodes on its surface (nodes at exactly the ball radius),
// as a function of ball size. One subgraph scratch, BFS scratch and Dinic
// network are reused across every ball, so the sweep allocates only the
// per-ball subgraphs themselves; the sampling RNG sequence is unchanged, so
// the series is byte-identical to the historical implementation.
func SurfaceMaxFlowCurve(g *graph.Graph, cfg ball.Config, flowSamples int) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	if flowSamples <= 0 {
		flowSamples = 8
	}
	r := rand.New(rand.NewSource(29))
	subScratch := graph.NewSubgraphScratch()
	bfs := graph.NewBFSScratch()
	var nw flow.Network
	var surface []int32
	var raw []stats.Point
	ball.Visit(g, cfg, func(b ball.Ball) {
		sub := subScratch.Induced(g, b.Nodes)
		// The center is node 0 of the subgraph (BFS order); surface nodes
		// are those at distance Radius.
		bfs.BFS(sub, 0)
		surface = surface[:0]
		for v := int32(0); v < int32(sub.NumNodes()); v++ {
			if int(bfs.Dist(v)) == b.Radius {
				surface = append(surface, v)
			}
		}
		if len(surface) == 0 {
			return
		}
		nw.Reset(sub)
		total, samples := 0.0, 0
		for i := 0; i < flowSamples && i < len(surface); i++ {
			t := surface[r.Intn(len(surface))]
			total += float64(nw.MaxFlow(0, t))
			samples++
		}
		raw = append(raw, stats.Point{
			X: float64(sub.NumNodes()),
			Y: total / float64(samples),
		})
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "surfacemaxflow"
	return s
}
