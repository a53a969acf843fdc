package topocmp

import (
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/metrics"
	"topocmp/internal/partition"
)

// kernelBenchRow is one line of BENCH_kernels.json. These rows are the
// machine-readable form of the kernel tables in EXPERIMENTS.md.
type kernelBenchRow struct {
	Name         string  `json:"name"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// benchKernel runs fn b.N times with alloc accounting and records the row.
func benchKernel(b *testing.B, fn func()) {
	b.Helper()
	row := kernelBenchRow{Name: b.Name()}
	row.SecondsPerOp, row.AllocsPerOp, row.BytesPerOp = opCost(b, fn)
	recordBench(b, "BENCH_kernels.json", row)
}

func kernelCfg() ball.Config {
	return ball.Config{MaxSources: 4, Rand: rand.New(rand.NewSource(1))}
}

// BenchmarkKernelResilience is the headline kernel workload: full
// resilience curves whose per-ball balanced bisections run on the engine's
// pooled workspaces. mesh is a 900-node mesh from 4 centres; PLRG and AS
// run the quick-scale networks with the suite's resilience settings (12
// centres, balls up to 1500 nodes) on a fresh engine per iteration, so
// each op also grows its balls.
func BenchmarkKernelResilience(b *testing.B) {
	b.Run("mesh", func(b *testing.B) {
		g := canonical.Mesh(30, 30)
		benchKernel(b, func() {
			metrics.ResilienceWith(ball.NewEngine(g, 1), kernelCfg(), 1)
		})
	})
	quick := experiments.QuickConfig(1)
	nets := []*core.Network{core.BuildNetwork("PLRG", quick.Set), core.BuildMeasured(quick.Set).AS}
	for _, n := range nets {
		b.Run(n.Name, func(b *testing.B) {
			benchKernel(b, func() {
				metrics.ResilienceWith(ball.NewEngine(n.Graph, 1), ball.Config{
					MaxSources:  quick.Suite.Sources,
					MaxBallSize: quick.Suite.MaxBallSize,
					Rand:        rand.New(rand.NewSource(quick.Suite.Seed + 1)),
				}, quick.Suite.Seed+100)
			})
		})
	}
}

// BenchmarkKernelCutSize isolates one balanced bisection: a throwaway
// solver per call versus a warm reused workspace.
func BenchmarkKernelCutSize(b *testing.B) {
	g := canonical.Mesh(30, 30)
	b.Run("fresh", func(b *testing.B) {
		benchKernel(b, func() {
			partition.CutSizeWith(partition.NewWorkspace(), g, rand.New(rand.NewSource(1)))
		})
	})
	b.Run("workspace", func(b *testing.B) {
		ws := partition.NewWorkspace()
		partition.CutSizeWith(ws, g, rand.New(rand.NewSource(1)))
		benchKernel(b, func() {
			partition.CutSizeWith(ws, g, rand.New(rand.NewSource(1)))
		})
	})
}

// BenchmarkKernelSurfaceFlow times the surface-max-flow curve, which grows
// its balls on a width-1 engine and reuses one Dinic network across every
// ball.
func BenchmarkKernelSurfaceFlow(b *testing.B) {
	g := canonical.Mesh(30, 30)
	b.Run("legacy", func(b *testing.B) {
		benchKernel(b, func() {
			metrics.SurfaceMaxFlowCurve(g, kernelCfg(), 6)
		})
	})
}

// BenchmarkKernelBallCurves times the per-ball kernels behind the suite's
// distortion, vertex-cover and clustering stages on paper families: each op
// grows the quick-scale suite's balls (12 centres, up to 1500 nodes) on a
// fresh engine, inducing every ball subgraph once, and runs the three
// curves over them with the suite's settings.
func BenchmarkKernelBallCurves(b *testing.B) {
	quick := experiments.QuickConfig(1)
	nets := []*core.Network{
		core.BuildNetwork("Linear", quick.Set),
		core.BuildNetwork("Mesh", quick.Set),
		core.BuildMeasured(quick.Set).AS,
		core.BuildNetwork("Complete", quick.Set),
	}
	cfg := func() ball.Config {
		return ball.Config{
			MaxSources:  quick.Suite.Sources,
			MaxBallSize: quick.Suite.MaxBallSize,
			Rand:        rand.New(rand.NewSource(quick.Suite.Seed + 1)),
		}
	}
	for _, n := range nets {
		b.Run(n.Name, func(b *testing.B) {
			benchKernel(b, func() {
				e := ball.NewEngine(n.Graph, 1)
				metrics.DistortionWith(e, cfg(), 3)
				metrics.VertexCoverCurveWith(e, cfg())
				metrics.ClusteringCurveWith(e, cfg())
			})
		})
	}
}
