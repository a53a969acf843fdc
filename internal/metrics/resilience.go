package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/partition"
	"topocmp/internal/stats"
)

// ResilienceWith computes R(n) on the engine's graph: the average minimum
// cut-set size of a balanced bipartition of the subgraph inside an n-node
// ball (§3.2.1). The metric is keyed by ball *size*, not radius, to factor
// out expansion differences. Raw (size, cut) samples are averaged into
// geometric buckets.
//
// Each center partitions its balls with an RNG derived from
// seed+centerIndex, which keeps the series
// bit-identical at every engine parallelism. Callers that hold a seeded
// RNG rather than a seed draw it once, rand.New(src).Int63(), and pass the
// result. Cut computations run on the engine's pooled per-worker partition
// workspaces, so steady-state partitioning does not allocate.
func ResilienceWith(e *ball.Engine, cfg ball.Config, seed int64) stats.Series {
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 2
	}
	raw := e.BallPointsKernels(cfg, seed,
		func(sub *graph.Graph, _ int, rng *rand.Rand, k *ball.Kernels) (float64, bool) {
			return float64(partition.CutSizeWith(k.Part, sub, rng)), true
		})
	s := stats.Bucketize(raw, stats.BucketRatio)
	s.Name = "resilience"
	return s
}
