package topocmp

import (
	"os"
	"runtime"
	"testing"

	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
)

// pipeCfg is the pipeline benchmark configuration: small enough that a
// full cold run fits in a benchmark iteration, large enough that network
// construction and suite runs dominate the scheduler overhead.
func pipeCfg() experiments.Config {
	return experiments.Config{
		Set: core.PaperSetOptions{Seed: 1, Scale: 0.06},
		Suite: core.SuiteOptions{Sources: 4, MaxBallSize: 300, EigenRank: 8,
			LinkSources: 64, Seed: 1},
	}
}

// pipelineBenchRow is one line of BENCH_pipeline.json.
type pipelineBenchRow struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	Cache         string  `json:"cache"`
	SecondsPerOp  float64 `json:"seconds_per_op"`
	NetworkBuilds int64   `json:"network_builds"`
	SuiteRuns     int64   `json:"suite_runs"`
}

func recordPipelineBench(b *testing.B, workers int, cacheState string, st experiments.Stats) {
	b.Helper()
	recordBench(b, "BENCH_pipeline.json", pipelineBenchRow{
		Name:          b.Name(),
		Workers:       workers,
		Cache:         cacheState,
		SecondsPerOp:  b.Elapsed().Seconds() / float64(b.N),
		NetworkBuilds: st.NetworkBuilds,
		SuiteRuns:     st.SuiteRuns,
	})
}

var pipelineWidths = []struct {
	name    string
	workers int
}{
	{"seq", 1},
	{"numcpu", runtime.NumCPU()},
}

// BenchmarkPipeline times the full build-and-measure DAG: cold with an
// empty cache (computes and persists everything) at 1 and NumCPU workers,
// then warm against a populated cache (restores everything, zero builds).
func BenchmarkPipeline(b *testing.B) {
	for _, w := range pipelineWidths {
		b.Run("cold_"+w.name, func(b *testing.B) {
			var st experiments.Stats
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp(b.TempDir(), "cache")
				if err != nil {
					b.Fatal(err)
				}
				store, err := cache.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				r := experiments.NewRunner(pipeCfg())
				r.Workers = w.workers
				r.Cache = store
				r.Prefetch()
				st = r.Stats()
			}
			recordPipelineBench(b, w.workers, "cold", st)
		})
	}
	b.Run("warm_numcpu", func(b *testing.B) {
		dir := b.TempDir()
		store, err := cache.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		seed := experiments.NewRunner(pipeCfg())
		seed.Cache = store
		seed.Prefetch()
		b.ResetTimer()
		var st experiments.Stats
		for i := 0; i < b.N; i++ {
			warmStore, err := cache.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			r := experiments.NewRunner(pipeCfg())
			r.Workers = runtime.NumCPU()
			r.Cache = warmStore
			r.Prefetch()
			st = r.Stats()
		}
		recordPipelineBench(b, runtime.NumCPU(), "warm", st)
	})
}
