// Package multicast implements the multicast-tree analysis of Phillips,
// Shenker and Tangmunarunkit ("Scaling of Multicast Trees", SIGCOMM 1999),
// the work the paper's expansion metric descends from: the number of links
// in a shortest-path multicast tree as a function of the receiver-set size,
// and the Chuang–Sirbu scaling-law exponent L(m) ∝ ū·m^k (k ≈ 0.8 on
// Internet-like graphs). Phillips et al. showed the law holds approximately
// on graphs whose neighborhoods grow exponentially — precisely the
// high-expansion topologies of the paper's Figure 2.
package multicast

import (
	"fmt"
	"math/rand"

	"topocmp/internal/graph"
	"topocmp/internal/rng"
	"topocmp/internal/stats"
)

// TreeLinks returns the number of links in the shortest-path tree from
// source to the receiver set: the union of the BFS-tree paths from the
// source to each receiver. Unreachable receivers are ignored.
func TreeLinks(g *graph.Graph, source int32, receivers []int32) int {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[source] = source
	queue := []int32{source}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	inTree := make([]bool, n)
	inTree[source] = true
	links := 0
	for _, r := range receivers {
		if parent[r] == -1 {
			continue
		}
		for v := r; !inTree[v]; v = parent[v] {
			inTree[v] = true
			links++
		}
	}
	return links
}

// ScalingCurve estimates E[L(m)] for receiver-set sizes m spaced
// geometrically up to maxReceivers, averaging over trials random
// receiver sets per size (receivers drawn uniformly, excluding the source).
func ScalingCurve(g *graph.Graph, source int32, maxReceivers, trials int, r *rand.Rand) stats.Series {
	if r == nil {
		r = rand.New(rand.NewSource(1))
	}
	if trials <= 0 {
		trials = 8
	}
	n := g.NumNodes()
	if maxReceivers <= 0 || maxReceivers >= n {
		maxReceivers = n - 1
	}
	s := stats.Series{Name: "multicast"}
	for m := 1; m <= maxReceivers; m = nextSize(m) {
		total := 0.0
		for t := 0; t < trials; t++ {
			receivers := sampleReceivers(r, n, source, m)
			total += float64(TreeLinks(g, source, receivers))
		}
		s.Add(float64(m), total/float64(trials))
	}
	return s
}

func nextSize(m int) int {
	next := m * 3 / 2
	if next <= m {
		next = m + 1
	}
	return next
}

func sampleReceivers(r *rand.Rand, n int, source int32, m int) []int32 {
	picked := rng.SampleInts(r, n, m+1)
	out := make([]int32, 0, m)
	for _, v := range picked {
		if int32(v) != source && len(out) < m {
			out = append(out, int32(v))
		}
	}
	return out
}

// ChuangSirbuExponent fits L(m) = c·m^k over the scaling curve and returns
// k. Internet-like (high-expansion) topologies give k ≈ 0.8.
func ChuangSirbuExponent(curve stats.Series) float64 {
	return stats.LogLogFit(curve.Points).Slope
}

// Efficiency returns the multicast efficiency curve: the ratio of multicast
// tree links to the links that m separate unicast paths would use
// (m × average path length). Values well below 1 quantify multicast's
// advantage (Chalmers–Almeroth).
func Efficiency(curve stats.Series, avgPathLen float64) (stats.Series, error) {
	if avgPathLen <= 0 {
		return stats.Series{}, fmt.Errorf("multicast: avgPathLen must be positive")
	}
	out := stats.Series{Name: "efficiency"}
	for _, p := range curve.Points {
		out.Add(p.X, p.Y/(p.X*avgPathLen))
	}
	return out, nil
}
