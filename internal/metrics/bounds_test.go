package metrics

import (
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

func boundsTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 1200, Beta: 2.246})
	if g.NumNodes() < 200 {
		t.Fatalf("test graph too small: %d nodes", g.NumNodes())
	}
	return g
}

func meanStdErr(s stats.Series) float64 {
	if len(s.StdErr) == 0 {
		return 0
	}
	sum := 0.0
	for _, se := range s.StdErr {
		sum += se
	}
	return sum / float64(len(s.StdErr))
}

func maxStdErr(s stats.Series) float64 {
	max := 0.0
	for _, se := range s.StdErr {
		if se > max {
			max = se
		}
	}
	return max
}

// TestExpansionBoundsShrinkWithBudget checks the sampled-estimator
// contract on expansion: a larger sampling budget must tighten the
// confidence bounds, and a full enumeration must report zero-width bounds.
func TestExpansionBoundsShrinkWithBudget(t *testing.T) {
	g := boundsTestGraph(t)
	run := func(budget int) stats.Series {
		return ExpansionWith(ball.NewEngine(g, 1), ball.Config{
			MaxSources: budget, Rand: rand.New(rand.NewSource(5)),
		})
	}
	small, large := run(16), run(g.NumNodes()/2)
	if len(small.StdErr) != len(small.Points) || len(large.StdErr) != len(large.Points) {
		t.Fatal("expansion series missing per-point bounds")
	}
	if ms, ml := meanStdErr(small), meanStdErr(large); ml >= ms {
		t.Errorf("bounds did not shrink: budget 16 mean stderr %v, budget %d mean stderr %v",
			ms, g.NumNodes()/2, ml)
	}
	if ms := meanStdErr(small); ms == 0 {
		t.Error("sampled expansion reported zero-width bounds")
	}
	full := run(0) // 0 = every node
	if m := maxStdErr(full); m != 0 {
		t.Errorf("full enumeration: want zero-width bounds, got max stderr %v", m)
	}
}

// TestEccentricityBoundsShrinkWithBudget does the same for the
// node-eccentricity distribution's per-bin proportions.
func TestEccentricityBoundsShrinkWithBudget(t *testing.T) {
	g := boundsTestGraph(t)
	run := func(budget int) stats.Series {
		return EccentricityDistributionWith(ball.NewEngine(g, 1), budget, 0.1,
			rand.New(rand.NewSource(5)))
	}
	small, large := run(24), run(g.NumNodes()/2)
	if len(small.StdErr) != len(small.Points) || len(large.StdErr) != len(large.Points) {
		t.Fatal("eccentricity series missing per-point bounds")
	}
	if ms, ml := maxStdErr(small), maxStdErr(large); ml >= ms {
		t.Errorf("bounds did not shrink: budget 24 max stderr %v, larger budget max stderr %v", ms, ml)
	}
	if m := maxStdErr(run(0)); m != 0 {
		t.Errorf("full enumeration: want zero-width bounds, got max stderr %v", m)
	}
}

// TestAveragePathLengthBounds checks the per-source path-length estimator:
// the full-enumeration point estimate must be total distance over total
// pairs of a scalar BFS from every node, bounds must shrink with budget,
// and full enumeration must be exactly zero-width.
func TestAveragePathLengthBounds(t *testing.T) {
	g := boundsTestGraph(t)
	apl, seFull := AveragePathLength(g, 0)
	if seFull != 0 {
		t.Errorf("full enumeration: want stderr exactly 0, got %v", seFull)
	}
	totalDist, totalPairs := 0.0, 0.0
	for src := int32(0); src < int32(g.NumNodes()); src++ {
		dist, order := g.BFS(src)
		for _, v := range order[1:] {
			totalDist += float64(dist[v])
		}
		totalPairs += float64(len(order) - 1)
	}
	if want := totalDist / totalPairs; apl != want {
		t.Errorf("AveragePathLength %v, scalar BFS over all pairs %v", apl, want)
	}
	_, seSmall := AveragePathLength(g, 12)
	_, seLarge := AveragePathLength(g, g.NumNodes()/2)
	if seSmall == 0 {
		t.Error("sampled run reported a zero-width bound")
	}
	if seLarge >= seSmall {
		t.Errorf("bounds did not shrink: budget 12 stderr %v, half-graph stderr %v", seSmall, seLarge)
	}
}

// TestToleranceCurvesCarryBounds checks that the attack/error removal
// curves attach one bound per removal fraction.
func TestToleranceCurvesCarryBounds(t *testing.T) {
	g := boundsTestGraph(t)
	fr := []float64{0, 0.05}
	att := AttackTolerance(g, fr, 32)
	if len(att.StdErr) != len(att.Points) {
		t.Fatalf("attack: %d bounds for %d points", len(att.StdErr), len(att.Points))
	}
	full := AttackTolerance(g, []float64{0}, 0)
	if full.StdErr[0] != 0 {
		t.Errorf("attack full enumeration: want zero-width bound, got %v", full.StdErr[0])
	}
}
