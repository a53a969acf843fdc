package metrics

import (
	"math/rand"
	"slices"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// VertexCover returns an approximate minimum vertex cover of g: the better
// of the maximal-matching 2-approximation and a greedy max-degree cover.
// The size of this set is the paper's vertex-cover metric (Figure 8(a-c)).
// Both covers are built in a pooled workspace, so the returned copy is the
// only allocation in steady state.
func VertexCover(g *graph.Graph) []int32 {
	ws := coverPool.Get()
	defer coverPool.Put(ws)
	m := ws.matchingCover(g)
	gr := ws.greedyCover(g)
	if len(gr) < len(m) {
		return slices.Clone(gr)
	}
	return slices.Clone(m)
}

// VertexCoverCurve computes the vertex-cover size of ball subgraphs as a
// function of ball size, the ball-growing form used in Figure 8(a-c).
func VertexCoverCurve(g *graph.Graph, cfg ball.Config) stats.Series {
	return VertexCoverCurveWith(ball.NewEngine(g, 1), cfg)
}

// VertexCoverCurveWith is VertexCoverCurve over an engine: balls grow on
// the worker pool and their subgraphs come from the shared ball cache.
func VertexCoverCurveWith(e *ball.Engine, cfg ball.Config) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 2
	}
	raw := e.BallPoints(cfg, 0, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return float64(len(VertexCover(sub))), true
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "vertexcover"
	return s
}

// coverScratch is vertex cover's pooled workspace: the matching's used
// marks, the greedy pass's uncovered-edge counts and bucket queue, and
// both covers under construction.
type coverScratch struct {
	used            []bool
	uncov           []int32
	queue           graph.BucketQueue
	matched, greedy []int32
}

var coverPool = ball.NewPool(func() *coverScratch { return &coverScratch{} })

// matchingCover takes both endpoints of a greedily built maximal matching —
// the classical 2-approximation. The result aliases ws until its next use.
func (ws *coverScratch) matchingCover(g *graph.Graph) []int32 {
	n := g.NumNodes()
	ws.used = slices.Grow(ws.used[:0], n)[:n]
	clear(ws.used)
	used := ws.used
	cover := ws.matched[:0]
	for u := int32(0); u < int32(n); u++ {
		if used[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if !used[v] && v != u {
				used[u] = true
				used[v] = true
				cover = append(cover, u, v)
				break
			}
		}
	}
	ws.matched = cover
	return cover
}

// greedyCover repeatedly takes the node with the most uncovered incident
// edges, lowest id on ties, off a bucket queue keyed by the uncovered
// count. The historical lazy max-heap (cover_test.go) ordered by the same
// strict key, so the cover comes out node for node the same. Taking a node
// zeroes its count, so its neighbours' counts are the only keys that move.
// The result aliases ws until its next use.
func (ws *coverScratch) greedyCover(g *graph.Graph) []int32 {
	n := g.NumNodes()
	ws.uncov = growInts(ws.uncov, n)
	uncov, q := ws.uncov, &ws.queue
	maxDeg := 0
	for v := int32(0); v < int32(n); v++ {
		uncov[v] = int32(g.Degree(v))
		maxDeg = max(maxDeg, int(uncov[v]))
	}
	q.Reset(n, 1, maxDeg)
	for v := int32(0); v < int32(n); v++ {
		if uncov[v] > 0 {
			q.Push(v, int(uncov[v]))
		}
	}
	cover := ws.greedy[:0]
	for {
		u, ok := q.Pop()
		if !ok {
			break
		}
		cover = append(cover, u)
		uncov[u] = 0
		for _, v := range g.Neighbors(u) {
			if old := uncov[v]; old > 0 {
				uncov[v]--
				q.Remove(v, int(old))
				if old > 1 {
					q.Push(v, int(old-1))
				}
			}
		}
	}
	ws.greedy = cover
	return cover
}

// WeightedVertexCover computes a 2-approximate minimum weighted vertex
// cover of the pair graph given as edges over nodes with weights, using the
// local-ratio (primal-dual) rule: for each uncovered pair, pay the smaller
// residual weight on both endpoints; a node whose residual hits zero joins
// the cover. It returns the total original weight of the cover. This is the
// subroutine behind the paper's link values (§5).
func WeightedVertexCover(pairs [][2]int32, weight map[int32]float64) float64 {
	residual := make(map[int32]float64, len(weight))
	for v, w := range weight {
		residual[v] = w
	}
	inCover := make(map[int32]bool)
	for _, p := range pairs {
		u, v := p[0], p[1]
		if inCover[u] || inCover[v] {
			continue
		}
		ru, rv := residual[u], residual[v]
		m := ru
		if rv < m {
			m = rv
		}
		residual[u] = ru - m
		residual[v] = rv - m
		if residual[u] <= 1e-12 {
			inCover[u] = true
		}
		if residual[v] <= 1e-12 && v != u {
			inCover[v] = true
		}
	}
	total := 0.0
	for v := range inCover {
		total += weight[v]
	}
	return total
}
