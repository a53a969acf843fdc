// Package metrics implements the paper's eight topology metrics: the three
// basic discriminators (expansion, resilience, distortion — §3.2.1) and the
// five auxiliary metrics of Appendix B (eigenvalue spectrum, node-diameter
// distribution, vertex cover, biconnectivity, attack/error tolerance), plus
// the Bu–Towsley clustering coefficient used in §4.4. Every ball-based
// metric follows the paper's ball-growing technique via internal/ball.
package metrics

import (
	"topocmp/internal/ball"
	"topocmp/internal/stats"
)

// ExpansionWith computes E(h) on the engine's graph: the average fraction
// of the graph's nodes that fall within a ball of radius h, averaged over
// (sampled) centers. This is the reachability-style metric of Phillips et
// al. normalized by graph size so that differently sized graphs are
// comparable (§3.2.1). Expansion only needs ball sizes, which the engine's
// profiles hold: the per-center passes run through its bit-parallel
// distance kernel, and metrics sampling the same centers reuse them. Level
// counts are exact integers, so the series is byte-identical to a scalar
// per-center BFS.
func ExpansionWith(e *ball.Engine, cfg ball.Config) stats.Series {
	g := e.Graph()
	n := g.NumNodes()
	out := stats.Series{Name: "expansion"}
	if n == 0 {
		return out
	}
	centers := ball.Centers(g, &cfg)
	profiles := e.Profiles(centers)
	maxEcc := 0
	for _, p := range profiles {
		if ecc := p.Eccentricity(); ecc > maxEcc {
			maxEcc = ecc
		}
	}
	// Sum |ball(center, h)| over centers (in center order, so the float
	// accumulation is deterministic), saturating centers of smaller
	// eccentricity. Each E(h) is the mean over sampled centers of the
	// per-center reach fraction, so it carries a finite-population-corrected
	// standard error over those per-center fractions: zero when every node
	// served as a center, shrinking as the sample budget grows.
	total := float64(n)
	fracs := make([]float64, len(profiles))
	for h := 0; h <= maxEcc; h++ {
		sum := 0.0
		for i, p := range profiles {
			f := float64(p.Size(h))
			sum += f
			fracs[i] = f / total
		}
		out.AddWithErr(float64(h), sum/float64(len(profiles))/total,
			stats.MeanStdErrFPC(fracs, n))
	}
	return out
}
