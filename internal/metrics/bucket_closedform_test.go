package metrics

import (
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/partition"
	"topocmp/internal/stats"
)

// TestBucketCurvesOnPath checks the ball curves that one ball per center
// and size bucket evaluates against a path's closed forms: every ball of
// Linear(n) is a path, which is its own spanning tree (distortion exactly
// 1) and whose minimum bisection cuts one edge. The multilevel heuristic
// misses that minimum on about one path bisection in 35 and cuts two
// edges instead, so a resilience bucket mean lies in [1, 2). The curves
// must also keep every bucket the eligible ball sizes reach: node i's ball
// of radius h holds min(i,h)+min(n−1−i,h)+1 nodes.
func TestBucketCurvesOnPath(t *testing.T) {
	for _, n := range []int{2, 3, 17, 120, 500} {
		g := canonical.Linear(n)
		cfg := func() ball.Config {
			return ball.Config{MaxSources: 12, MaxBallSize: 300, Rand: rand.New(rand.NewSource(int64(n)))}
		}
		res := ResilienceWith(ball.NewEngine(g, 2), cfg(), 5)
		dist := DistortionWith(ball.NewEngine(g, 2), cfg(), 3)
		for _, p := range res.Points {
			if p.Y < 1 || p.Y >= 2 {
				t.Fatalf("Linear(%d): resilience %v at size %v, want in [1, 2)", n, p.Y, p.X)
			}
		}
		for _, p := range dist.Points {
			if p.Y != 1 {
				t.Fatalf("Linear(%d): distortion %v at size %v, want 1", n, p.Y, p.X)
			}
		}
		for _, curve := range []struct {
			s       stats.Series
			minSize int
		}{{res, 2}, {dist, 3}} {
			c := cfg()
			want := map[int]bool{}
			for _, i := range ball.Centers(g, &c) {
				for h := 1; h < n; h++ {
					sz := min(int(i), h) + min(n-1-int(i), h) + 1
					if sz >= curve.minSize && sz <= 300 {
						want[stats.BucketIndex(float64(sz), stats.BucketRatio)] = true
					}
				}
			}
			if len(curve.s.Points) != len(want) {
				t.Fatalf("Linear(%d) %s: %d points, want one per reached bucket (%d)",
					n, curve.s.Name, len(curve.s.Points), len(want))
			}
			for _, p := range curve.s.Points {
				if !want[stats.BucketIndex(p.X, stats.BucketRatio)] {
					t.Fatalf("Linear(%d) %s: point at size %v outside the reached buckets", n, curve.s.Name, p.X)
				}
			}
		}
	}
}

// TestBucketCurvesOnComplete checks that Complete(n), whose only ball
// beyond the center is the whole graph, keeps its values: every BFS tree
// is a star, so the n−1 star edges lie at tree distance 1 and the other
// edges at 2; a vertex cover needs n−1 nodes; the graph is one biconnected
// component with clustering coefficient 1. Resilience has no closed form
// under the partitioner's balance slack (K20 may split 9/11 and cut 99
// edges), so it must equal each center's bisection of the whole graph,
// with the fresh per-center RNG the curve has always given that ball.
func TestBucketCurvesOnComplete(t *testing.T) {
	const seed = 3
	for n := 3; n <= 24; n++ {
		g := canonical.Complete(n)
		cfg := func() ball.Config { return ball.Config{MaxSources: 4, Rand: rand.New(rand.NewSource(1))} }
		eng := ball.NewEngine(g, 2)
		m := n * (n - 1) / 2
		cuts := 0.0
		for i := range min(n, 4) {
			cuts += float64(partition.CutSizeWith(partition.NewWorkspace(), g,
				rand.New(rand.NewSource(seed+int64(i)))))
		}
		for _, c := range []struct {
			s    stats.Series
			want float64
		}{
			{ResilienceWith(eng, cfg(), seed), cuts / float64(min(n, 4))},
			{DistortionWith(eng, cfg(), 3), float64((n-1)+2*(m-(n-1))) / float64(m)},
			{VertexCoverCurveWith(eng, cfg()), float64(n - 1)},
			{BiconnectivityCurveWith(eng, cfg()), 1},
			{ClusteringCurveWith(eng, cfg()), 1},
		} {
			if len(c.s.Points) != 1 || c.s.Points[0].X != float64(n) || c.s.Points[0].Y != c.want {
				t.Fatalf("Complete(%d) %s = %v, want one point (%d, %v)", n, c.s.Name, c.s.Points, n, c.want)
			}
		}
	}
}
