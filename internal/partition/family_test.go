package partition_test

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/graph"
	"topocmp/internal/partition"
)

// TestBisectMatchesHeapOnPaperBalls replays every resilience ball of the
// quick-scale PLRG and AS networks, with the ball centres, sizes and
// per-centre RNG streams the suite's resilience stage uses, through
// BisectWith on the engine's pooled workspaces and through the lazy-heap
// reference. Cuts and side arrays must agree ball for ball.
func TestBisectMatchesHeapOnPaperBalls(t *testing.T) {
	cfg := experiments.QuickConfig(1)
	nets := []*core.Network{
		core.BuildNetwork("PLRG", cfg.Set),
		core.BuildMeasured(cfg.Set).AS,
	}
	type result struct {
		cut  int
		side []bool
	}
	replay := func(g *graph.Graph, bisect func(*ball.Kernels, *graph.Graph, *rand.Rand) (int, []bool)) []result {
		var out []result
		ballCfg := ball.Config{
			MaxSources:  cfg.Suite.Sources,
			MaxBallSize: cfg.Suite.MaxBallSize,
			MinBallSize: 2,
			Rand:        rand.New(rand.NewSource(cfg.Suite.Seed + 1)),
		}
		ball.NewEngine(g, 1).BallPointsKernels(ballCfg, cfg.Suite.Seed+100,
			func(sub *graph.Graph, _ int, rng *rand.Rand, k *ball.Kernels) (float64, bool) {
				cut, side := bisect(k, sub, rng)
				out = append(out, result{cut, side})
				return 0, false
			})
		return out
	}
	for _, n := range nets {
		got := replay(n.Graph, func(k *ball.Kernels, sub *graph.Graph, o *rand.Rand) (int, []bool) {
			return partition.BisectWith(k.Part, sub, o)
		})
		want := replay(n.Graph, func(_ *ball.Kernels, sub *graph.Graph, o *rand.Rand) (int, []bool) {
			return partition.BisectHeap(sub, o)
		})
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d balls bisected, reference %d", n.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].cut != want[i].cut || !slices.Equal(got[i].side, want[i].side) {
				t.Fatalf("%s ball %d (%d nodes): cut %d, reference %d, sides equal %t",
					n.Name, i, len(got[i].side), got[i].cut, want[i].cut,
					slices.Equal(got[i].side, want[i].side))
			}
		}
		t.Logf("%s: %d balls identical", n.Name, len(got))
	}
}
