package metrics_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
)

// TestBrandesRaceShort is the tier-2 race target for the betweenness
// reroute: a four-worker ball engine drives the distortion metric (whose
// top-roots ranking runs through the pooled Brandes kernels) concurrently
// with direct SubgraphDistortionKernels calls, each goroutine on its own
// kernel bundle but all leasing from the shared distortion workspace pool.
// The parallel series must stay bit-identical to the sequential engine, and
// the direct values bit-identical to each other.
func TestBrandesRaceShort(t *testing.T) {
	g := canonical.Random(rand.New(rand.NewSource(31)), 300, 0.025)
	cfg := func() ball.Config {
		return ball.Config{MaxSources: 8, MaxBallSize: 220, Rand: rand.New(rand.NewSource(5))}
	}
	seq := metrics.DistortionWith(ball.NewEngine(g, 1), cfg(), 6)
	if len(seq.Points) == 0 {
		t.Fatal("empty distortion series")
	}
	sub := canonical.Random(rand.New(rand.NewSource(12)), 90, 0.08)
	newKernels := func() *ball.Kernels {
		return &ball.Kernels{Brandes: graph.NewBrandesScratch()}
	}
	wantSub := metrics.SubgraphDistortionKernels(sub, 6, newKernels())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		par := metrics.DistortionWith(ball.NewEngine(g, 4), cfg(), 6)
		if len(par.Points) != len(seq.Points) {
			t.Errorf("parallel series has %d points, sequential %d",
				len(par.Points), len(seq.Points))
			return
		}
		for i := range seq.Points {
			if par.Points[i] != seq.Points[i] {
				t.Errorf("point %d: parallel %v != sequential %v",
					i, par.Points[i], seq.Points[i])
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kn := newKernels()
			for k := 0; k < 8; k++ {
				if got := metrics.SubgraphDistortionKernels(sub, 6, kn); math.Float64bits(got) != math.Float64bits(wantSub) {
					t.Errorf("direct distortion %v != %v", got, wantSub)
					return
				}
			}
		}()
	}
	wg.Wait()
}
