package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/stats"
)

// EccentricityDistributionWith computes the node-diameter distribution of
// Figure 7(d-f) on the engine's graph: the histogram of node eccentricities
// normalized by the mean eccentricity, binned at binWidth (the paper uses
// ~0.1), with Y the fraction of sampled nodes per bin. maxSamples bounds
// the number of sampled nodes (0 = all nodes) and rng drives the sampling.
// Eccentricities only need ball sizes, which the engine's profiles hold:
// when rng matches the expansion metric's center sampling the two metrics
// share one batched kernel pass.
func EccentricityDistributionWith(e *ball.Engine, maxSamples int, binWidth float64, rng *rand.Rand) stats.Series {
	out := stats.Series{Name: "eccentricity"}
	g := e.Graph()
	n := g.NumNodes()
	if n == 0 {
		return out
	}
	if binWidth <= 0 {
		binWidth = 0.1
	}
	cfg := ball.Config{MaxSources: maxSamples, Rand: rng}
	centers := ball.Centers(g, &cfg)
	profiles := e.Profiles(centers)
	sum := 0.0
	for _, p := range profiles {
		sum += float64(p.Eccentricity())
	}
	mean := sum / float64(len(profiles))
	if mean == 0 {
		return out
	}
	bins := map[int]int{}
	for _, p := range profiles {
		bins[int(float64(p.Eccentricity())/mean/binWidth)]++
	}
	// Each bin height is a sample proportion over the sampled centers, so it
	// carries a finite-population-corrected proportion standard error —
	// exactly zero when every node was sampled.
	for b, cnt := range bins {
		p := float64(cnt) / float64(len(profiles))
		out.AddWithErr(float64(b)*binWidth+binWidth/2, p,
			stats.PropStdErrFPC(p, len(profiles), n))
	}
	out.SortByX()
	return out
}
