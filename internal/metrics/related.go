package metrics

import (
	"math"
	"math/rand"

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
// expansion metric is a normalized relative of this.
func HopPlot(g *graph.Graph, maxSources int, r *rand.Rand) stats.Series {
	if r == nil {
		r = rand.New(rand.NewSource(31))
	}
	n := g.NumNodes()
	out := stats.Series{Name: "hopplot"}
	if n == 0 {
		return out
	}
	sources := n
	if maxSources > 0 && maxSources < n {
		sources = maxSources
	}
	perm := r.Perm(n)
	// Per-source cumulative reach profiles, saturated to the global
	// maximum eccentricity. The sources sweep through the bit-parallel
	// MSBFS kernel 64 at a time; the cum profiles are integer counts, so
	// the series matches the scalar per-source BFS exactly.
	var profiles [][]float64
	maxEcc := 0
	ms := graph.NewMSBFSScratch()
	for lo := 0; lo < sources; lo += graph.MSBFSWidth {
		hi := lo + graph.MSBFSWidth
		if hi > sources {
			hi = sources
		}
		batch := make([]int32, hi-lo)
		for i := range batch {
			batch[i] = int32(perm[lo+i])
		}
		ms.RunLevels(g, batch)
		for i := range batch {
			levels := ms.LevelCounts(i)
			cum := make([]float64, len(levels))
			run := 0.0
			for h, cnt := range levels {
				run += float64(cnt)
				cum[h] = run
			}
			profiles = append(profiles, cum)
			if ecc := len(levels) - 1; ecc > maxEcc {
				maxEcc = ecc
			}
		}
	}
	scale := float64(n) / float64(sources)
	for h := 0; h <= maxEcc; h++ {
		sum := 0.0
		for _, cum := range profiles {
			if h < len(cum) {
				sum += cum[h]
			} else {
				sum += cum[len(cum)-1]
			}
		}
		out.Add(float64(h), sum*scale)
	}
	return out
}
