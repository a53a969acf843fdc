package metrics

import (
	"math"
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// This file implements the related-work metrics the paper discusses in §2:
// the small-world comparison of Watts and Strogatz and the Faloutsos et al.
// hop-plot.

// SmallWorld holds the Watts–Strogatz comparison of a graph against a
// same-size, same-degree random baseline.
type SmallWorld struct {
	Clustering       float64 // graph clustering coefficient
	PathLength       float64 // average shortest path length
	RandomClustering float64 // expected for G(n,m): k/n
	RandomPathLength float64 // expected: ln n / ln k
	Sigma            float64 // (C/Crand) / (L/Lrand); >> 1 is small-world
}

// SmallWorldness computes the small-world coefficient sigma with analytic
// random-graph baselines. pathSamples bounds the APL estimation (0 = all
// sources).
func SmallWorldness(g *graph.Graph, pathSamples int) SmallWorld {
	n := float64(g.NumNodes())
	k := g.AvgDegree()
	sw := SmallWorld{Clustering: ClusteringCoefficient(g)}
	sw.PathLength, _ = AveragePathLength(g, pathSamples)
	if n > 1 && k > 1 {
		sw.RandomClustering = k / n
		sw.RandomPathLength = math.Log(n) / math.Log(k)
	}
	if sw.RandomClustering > 0 && sw.RandomPathLength > 0 &&
		sw.PathLength > 0 && sw.Clustering > 0 {
		sw.Sigma = (sw.Clustering / sw.RandomClustering) /
			(sw.PathLength / sw.RandomPathLength)
	}
	return sw
}

// HopPlot returns the Faloutsos et al. hop-plot: the number of node pairs
// within h hops (including self-pairs), as a function of h, averaged over
// sampled sources and extrapolated to the full graph. The paper notes its
// expansion metric is a normalized relative of this. The sources' reach
// comes from the profiles of a width-1 engine; pair counts are integer
// sums, so the source order cannot change them.
func HopPlot(g *graph.Graph, maxSources int, r *rand.Rand) stats.Series {
	if r == nil {
		r = rand.New(rand.NewSource(31))
	}
	n := g.NumNodes()
	out := stats.Series{Name: "hopplot"}
	if n == 0 {
		return out
	}
	centers := ball.Centers(g, &ball.Config{MaxSources: maxSources, Rand: r})
	profiles := ball.NewEngine(g, 1).Profiles(centers)
	maxEcc := 0
	for _, p := range profiles {
		maxEcc = max(maxEcc, p.Eccentricity())
	}
	scale := float64(n) / float64(len(profiles))
	for h := 0; h <= maxEcc; h++ {
		pairs := 0
		for _, p := range profiles {
			pairs += p.Size(h)
		}
		out.Add(float64(h), float64(pairs)*scale)
	}
	return out
}
