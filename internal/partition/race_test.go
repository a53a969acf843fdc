package partition_test

import (
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/metrics"
)

// TestResilienceRaceShort drives the pooled partition workspaces from a
// four-worker ball engine — the tier-2 race target for this package. Under
// the race detector this catches any sharing between per-worker kernel
// bundles; the parallel series must also stay bit-identical to sequential.
func TestResilienceRaceShort(t *testing.T) {
	g := canonical.Random(rand.New(rand.NewSource(21)), 260, 0.03)
	cfg := func() ball.Config {
		return ball.Config{MaxSources: 8, MaxBallSize: 200, Rand: rand.New(rand.NewSource(5))}
	}
	seq := metrics.ResilienceWith(ball.NewEngine(g, 1), cfg(), 7)
	par := metrics.ResilienceWith(ball.NewEngine(g, 4), cfg(), 7)
	if len(seq.Points) == 0 {
		t.Fatal("empty resilience series")
	}
	if len(par.Points) != len(seq.Points) {
		t.Fatalf("parallel series has %d points, sequential %d", len(par.Points), len(seq.Points))
	}
	for i := range seq.Points {
		if par.Points[i] != seq.Points[i] {
			t.Fatalf("point %d: parallel %v != sequential %v", i, par.Points[i], seq.Points[i])
		}
	}
}
