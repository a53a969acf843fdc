package metrics

import (
	"math/rand"
	"sort"

	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// AttackTolerance computes the Albert–Jeong–Barabási attack-tolerance curve
// (Figure 9(a-c)): the average pairwise shortest path length within the
// largest component after removing each fraction f of nodes in decreasing
// degree order.
func AttackTolerance(g *graph.Graph, fractions []float64, pathSamples int) stats.Series {
	order := nodesByDegreeDesc(g)
	s := removalCurve(g, order, fractions, pathSamples)
	s.Name = "attack"
	return s
}

// ErrorTolerance is AttackTolerance with uniformly random removal order
// (Figure 9(d-f)).
func ErrorTolerance(g *graph.Graph, fractions []float64, pathSamples int, r *rand.Rand) stats.Series {
	if r == nil {
		r = rand.New(rand.NewSource(13))
	}
	n := g.NumNodes()
	order := make([]int32, n)
	for i, p := range r.Perm(n) {
		order[i] = int32(p)
	}
	s := removalCurve(g, order, fractions, pathSamples)
	s.Name = "error"
	return s
}

func nodesByDegreeDesc(g *graph.Graph) []int32 {
	n := g.NumNodes()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}

func removalCurve(g *graph.Graph, order []int32, fractions []float64, pathSamples int) stats.Series {
	var s stats.Series
	n := g.NumNodes()
	for _, f := range fractions {
		k := int(f * float64(n))
		sub, _ := g.RemoveNodes(order[:k])
		lc, _ := sub.LargestComponent()
		apl, se := AveragePathLength(lc, pathSamples)
		s.AddWithErr(f, apl, se)
	}
	return s
}

// AveragePathLength estimates the mean pairwise shortest-path length of a
// connected graph from up to maxSources source nodes (0 = all): total
// distance over total pairs, not the mean of per-source means. The sources
// sweep through the bit-parallel MSBFS kernel, 64 per CSR pass of the
// graph's level graph (built once per call), and the per-source sums come
// off its level counts; every partial sum is an exact integer in float64,
// so the result is identical to a scalar per-source BFS. stderr bounds the
// estimate: the finite-population-corrected standard error of the
// per-source mean path lengths, treating the sampled sources as a draw
// without replacement from the n nodes, exactly zero when every node
// serves as a source.
func AveragePathLength(g *graph.Graph, maxSources int) (apl, stderr float64) {
	n := g.NumNodes()
	if n < 2 {
		return 0, 0
	}
	sources := n
	if maxSources > 0 && maxSources < n {
		sources = maxSources
	}
	r := rand.New(rand.NewSource(int64(n)))
	perm := r.Perm(n)
	lg := graph.NewLevelGraph(g)
	ms := graph.NewMSBFSScratch()
	totalDist, totalPairs := 0.0, 0.0
	perSource := make([]float64, 0, sources)
	for lo := 0; lo < sources; lo += graph.MSBFSWidth {
		hi := lo + graph.MSBFSWidth
		if hi > sources {
			hi = sources
		}
		batch := make([]int32, hi-lo)
		for i := range batch {
			batch[i] = int32(perm[lo+i])
		}
		ms.RunLevels(lg, batch)
		for i := range batch {
			srcDist, srcPairs := 0.0, -1.0 // the source itself is not a pair
			for h, cnt := range ms.LevelCounts(i) {
				srcDist += float64(h) * float64(cnt)
				srcPairs += float64(cnt)
			}
			totalDist += srcDist
			totalPairs += srcPairs
			if srcPairs > 0 {
				perSource = append(perSource, srcDist/srcPairs)
			}
		}
	}
	if totalPairs == 0 {
		return 0, 0
	}
	return totalDist / totalPairs, stats.MeanStdErrFPC(perSource, n)
}
