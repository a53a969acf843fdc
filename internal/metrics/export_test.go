package metrics

import (
	"topocmp/internal/ball"
	"topocmp/internal/graph"
)

// SubgraphDistortionElection is SubgraphDistortionKernels without the tree
// answer: it always runs the bit-parallel center election.
func SubgraphDistortionElection(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	return subgraphDistortion(sub, roots, k)
}

// ScalarBetweenness is the reference accumulation the election ran on
// high-diameter balls before every election batched: per source, in list
// order, one counting BFS on s, then the dependency sweep in reverse BFS
// order, each term added into bc exactly as the scalar loop wrote it. The
// sweep reads the rows only at reached nodes and their neighbours.
func ScalarBetweenness(g *graph.Graph, sources []int32, s *graph.BFSScratch, bc []float64) {
	delta := make([]float64, g.NumNodes())
	for _, src := range sources {
		order := s.Counts(g, src)
		dist, sigma := s.Rows()
		clear(delta)
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range g.Neighbors(w) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if w != src {
				bc[w] += delta[w]
			}
		}
	}
}

// SubgraphDistortionScalar is the reference election's distortion:
// SubgraphDistortionElection with the sampled betweenness accumulated by
// ScalarBetweenness.
func SubgraphDistortionScalar(sub *graph.Graph, roots int) float64 {
	n := sub.NumNodes()
	if n < 2 || sub.NumEdges() == 0 {
		return 0
	}
	bc := make([]float64, n)
	ScalarBetweenness(sub, electionSources(n, nil), graph.NewBFSScratch(), bc)
	return minTreeDistortion(sub, topK(bc, roots), &distScratch{})
}
