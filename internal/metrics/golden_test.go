package metrics

import (
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/partition"
	"topocmp/internal/stats"
)

// goldenPLRG is the fixed seeded power-law graph all metric golden values
// below are pinned on.
func goldenPLRG() *graph.Graph {
	return plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 600, Beta: 2.246})
}

// coverFingerprint folds the cover's node sequence into one value, so a
// change anywhere in the greedy pop order shows up, not just a size change.
func coverFingerprint(cover []int32) (int, int64) {
	fp := int64(0)
	for _, v := range cover {
		fp = fp*1000003 + int64(v)
	}
	return len(cover), fp
}

// TestVertexCoverGolden pins the exact cover node sequences. greedyCover's
// typed heap must pop in container/heap's historical order; a fingerprint
// drift here means cover curves change and warm suite caches go stale.
func TestVertexCoverGolden(t *testing.T) {
	if n, fp := coverFingerprint(VertexCover(goldenPLRG())); n != 125 || fp != 5066101263106862863 {
		t.Errorf("plrg cover = (%d, %d), want (125, 5066101263106862863)", n, fp)
	}
	if n, fp := coverFingerprint(VertexCover(canonical.Mesh(20, 20))); n != 200 || fp != -6181670630353296150 {
		t.Errorf("mesh cover = (%d, %d), want (200, -6181670630353296150)", n, fp)
	}
}

func sameSeries(t *testing.T, name string, got stats.Series, want []stats.Point) {
	t.Helper()
	if len(got.Points) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got.Points), len(want))
	}
	for i, p := range got.Points {
		if p.X != want[i].X || p.Y != want[i].Y {
			t.Errorf("%s[%d] = (%v, %v), want (%v, %v)", name, i, p.X, p.Y, want[i].X, want[i].Y)
		}
	}
}

// TestResilienceSeriesGolden pins the full resilience series on the seeded
// power-law graph, bit for bit. This is the end-to-end guard on the kernel
// rewrite: centers, per-center seed derivation, the one-ball-per-bucket
// radius selection, workspace-backed cuts and bucketization all have to
// match the pinned pipeline exactly.
func TestResilienceSeriesGolden(t *testing.T) {
	s := ResilienceWith(ball.NewEngine(goldenPLRG(), 1),
		ball.Config{MaxSources: 6, MaxBallSize: 400, Rand: rand.New(rand.NewSource(2))},
		1)
	sameSeries(t, "resilience", s, []stats.Point{
		{X: 2, Y: 1}, {X: 3, Y: 1}, {X: 4, Y: 2}, {X: 6, Y: 3}, {X: 7.5, Y: 3},
		{X: 17, Y: 8.5}, {X: 24, Y: 11}, {X: 39, Y: 7}, {X: 42, Y: 6.5},
		{X: 74, Y: 6.5}, {X: 109.5, Y: 19}, {X: 153.5, Y: 21.5},
		{X: 227, Y: 30.5}, {X: 314.8333333333333, Y: 33}, {X: 383.5, Y: 33},
	})
}

// TestSurfaceMaxFlowSeriesGolden pins the legacy sequential surface-max-flow
// series bit for bit: cached experiment artifacts depend on its single
// shared RNG sequence, which the scratch-reuse optimization must not touch.
func TestSurfaceMaxFlowSeriesGolden(t *testing.T) {
	s := SurfaceMaxFlowCurve(goldenPLRG(),
		ball.Config{MaxSources: 6, MaxBallSize: 400, Rand: rand.New(rand.NewSource(2))}, 4)
	sameSeries(t, "surfacemaxflow", s, []stats.Point{
		{X: 3, Y: 1}, {X: 4, Y: 1}, {X: 6, Y: 1}, {X: 7.5, Y: 1},
		{X: 17, Y: 1}, {X: 24, Y: 1}, {X: 39, Y: 1.25}, {X: 42, Y: 1.25},
		{X: 74, Y: 1}, {X: 109.5, Y: 1.25}, {X: 153.5, Y: 1.375},
		{X: 227, Y: 1}, {X: 314.8333333333333, Y: 1}, {X: 383.5, Y: 1},
	})
}

// TestResilienceWorkspaceMatchesFresh checks the pooled-kernel resilience
// path against a reference that partitions every ball with a throwaway
// solver, at engine parallelism 1 and 4: recycled workspaces must change
// nothing, and neither may the worker pool width.
func TestResilienceWorkspaceMatchesFresh(t *testing.T) {
	g := goldenPLRG()
	cfg := func() ball.Config {
		return ball.Config{
			MaxSources:  6,
			MaxBallSize: 400,
			MinBallSize: 2,
			Rand:        rand.New(rand.NewSource(2)),
		}
	}
	const seed = 1
	freshRaw := ball.NewEngine(g, 1).BallPointsKernels(cfg(), seed,
		func(sub *graph.Graph, _ int, rng *rand.Rand, _ *ball.Kernels) (float64, bool) {
			return float64(partition.CutSizeWith(partition.NewWorkspace(), sub, rng)), true
		})
	fresh := stats.Bucketize(freshRaw, stats.BucketRatio)
	for _, par := range []int{1, 4} {
		got := ResilienceWith(ball.NewEngine(g, par), cfg(), seed)
		if len(got.Points) != len(fresh.Points) {
			t.Fatalf("parallelism %d: %d points, want %d", par, len(got.Points), len(fresh.Points))
		}
		for i, p := range got.Points {
			if p.X != fresh.Points[i].X || p.Y != fresh.Points[i].Y {
				t.Fatalf("parallelism %d point %d: (%v, %v) != fresh (%v, %v)",
					par, i, p.X, p.Y, fresh.Points[i].X, fresh.Points[i].Y)
			}
		}
	}
}
