package topocmp

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/metrics"
	"topocmp/internal/partition"
)

// kernelBenchRow is one line of BENCH_kernels.json, rewritten after every
// kernel benchmark so a partial -bench run still leaves a consistent file.
// These rows are the machine-readable form of the cut/flow kernel table in
// EXPERIMENTS.md.
type kernelBenchRow struct {
	Name         string  `json:"name"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

var kernelBench struct {
	sync.Mutex
	rows []kernelBenchRow
}

// benchKernel runs fn b.N times with alloc accounting and records the row.
func benchKernel(b *testing.B, fn func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	row := kernelBenchRow{
		Name:         b.Name(),
		SecondsPerOp: b.Elapsed().Seconds() / n,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	kernelBench.Lock()
	defer kernelBench.Unlock()
	// The harness re-enters the function while calibrating b.N; keep only
	// the latest (largest-N) row per benchmark name.
	replaced := false
	for i := range kernelBench.rows {
		if kernelBench.rows[i].Name == row.Name {
			kernelBench.rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		kernelBench.rows = append(kernelBench.rows, row)
	}
	data, err := json.MarshalIndent(kernelBench.rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kernels.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
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
			metrics.Resilience(g, kernelCfg(), partition.Options{})
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
				}, partition.Options{}, quick.Suite.Seed+100)
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
			partition.CutSize(g, partition.Options{Rand: rand.New(rand.NewSource(1))})
		})
	})
	b.Run("workspace", func(b *testing.B) {
		ws := partition.NewWorkspace()
		partition.CutSizeWith(ws, g, partition.Options{Rand: rand.New(rand.NewSource(1))})
		benchKernel(b, func() {
			partition.CutSizeWith(ws, g, partition.Options{Rand: rand.New(rand.NewSource(1))})
		})
	})
}

// BenchmarkKernelSurfaceFlow covers both surface-max-flow paths: the legacy
// sequential curve with its reused local scratch, and the engine form with
// pooled per-worker Dinic solvers.
func BenchmarkKernelSurfaceFlow(b *testing.B) {
	g := canonical.Mesh(30, 30)
	b.Run("legacy", func(b *testing.B) {
		benchKernel(b, func() {
			metrics.SurfaceMaxFlowCurve(g, kernelCfg(), 6)
		})
	})
	b.Run("engine", func(b *testing.B) {
		benchKernel(b, func() {
			metrics.SurfaceMaxFlowCurveWith(ball.NewEngine(g, 1), kernelCfg(), 6, 1)
		})
	})
}
