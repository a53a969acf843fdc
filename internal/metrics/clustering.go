package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// ClusteringCoefficient computes the Watts–Strogatz clustering coefficient
// used by Bu and Towsley: the average over nodes of degree >= 2 of the
// fraction of neighbor pairs that are themselves linked. Each node marks
// its neighbours once; a linked pair {u, w} of them is then counted from
// u's sorted neighbour list, among the entries above u.
func ClusteringCoefficient(g *graph.Graph) float64 {
	n := g.NumNodes()
	mark := markPool.Get()
	defer markPool.Put(mark)
	total, counted := 0.0, 0
	for v := int32(0); v < int32(n); v++ {
		nb := g.Neighbors(v)
		d := len(nb)
		if d < 2 {
			continue
		}
		mark.Begin(n)
		for _, u := range nb {
			mark.Visit(u)
		}
		links := 0
		for _, u := range nb {
			adj := g.Neighbors(u)
			for i := len(adj) - 1; i >= 0 && adj[i] > u; i-- {
				if mark.Seen(adj[i]) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// markPool holds ClusteringCoefficient's neighbour marks.
var markPool = ball.NewPool(func() *graph.Stamp { return &graph.Stamp{} })

// ClusteringCurve computes the clustering coefficient of ball subgraphs as
// a function of ball size, the ball-growing form of the clustering metric
// the paper reports in Figure 10 and §4.4.
func ClusteringCurve(g *graph.Graph, cfg ball.Config) stats.Series {
	return ClusteringCurveWith(ball.NewEngine(g, 1), cfg)
}

// ClusteringCurveWith is ClusteringCurve over an engine: balls grow on the
// worker pool and their subgraphs come from the shared ball cache.
func ClusteringCurveWith(e *ball.Engine, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	raw := e.BallPoints(cfg, 0, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return ClusteringCoefficient(sub), true
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "clustering"
	return s
}
