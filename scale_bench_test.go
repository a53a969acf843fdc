package topocmp

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/obs"
	"topocmp/internal/rng"
)

// scaleBenchRow is one line of BENCH_scale.json: the million-node scale
// pass's machine-readable record — map-vs-streamed builder peak memory, the
// size-vs-time/RSS build trajectory, and the full-RL sampled-metrics run.
type scaleBenchRow struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"` // "map", "streamed", "pipeline"
	Nodes         int     `json:"nodes"`
	EdgeAdds      int     `json:"edge_adds"`
	DistinctEdges int     `json:"distinct_edges"`
	SecondsPerOp  float64 `json:"seconds_per_op"`
	// PeakHeapBytes is the high-water heap over the build, measured with the
	// collector paused so allocation churn — the map path's dominant cost —
	// is counted deterministically instead of depending on GC timing.
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	// CSRBytes is the size of the finished off+adj arrays: the product both
	// builder paths share. BuildOverheadBytes = PeakHeapBytes - CSRBytes is
	// the memory attributable to building itself; the >= 4x streamed-vs-map
	// acceptance bar (asserted by TestScaleSmoke) is on this overhead.
	CSRBytes           int64 `json:"csr_bytes,omitempty"`
	BuildOverheadBytes int64 `json:"build_overhead_bytes,omitempty"`
	RSSBytes           int64 `json:"rss_bytes,omitempty"`
	// MeanStdErr is the mean per-point standard error of the sampled
	// expansion computed on the built graph (full-RL row only).
	MeanStdErr float64 `json:"mean_stderr,omitempty"`
}

// plrgEdgeStream reproduces the PLRG clone-matching edge stream at the given
// node count (the exact multiset plrg.FromDegrees feeds its builder), so the
// two builder implementations can be fed identical input.
func plrgEdgeStream(seed int64, n int) (adds [][2]int32, _ int) {
	r := rand.New(rand.NewSource(seed))
	degrees := rng.PowerLawDegrees(r, n, 2.246, n-1)
	total := 0
	for _, d := range degrees {
		total += d
	}
	copies := make([]int32, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			copies = append(copies, int32(v))
		}
	}
	rng.Shuffle(r, copies)
	adds = make([][2]int32, 0, total/2)
	for i := 0; i+1 < len(copies); i += 2 {
		adds = append(adds, [2]int32{copies[i], copies[i+1]})
	}
	return adds, n
}

func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// csrBytes is the footprint of a frozen graph's off+adj arrays — the
// identical product of both builder paths, subtracted out to isolate build
// overhead.
func csrBytes(g *graph.Graph) int64 {
	return int64(4*(g.NumNodes()+1) + 4*2*g.NumEdges())
}

// buildPeak runs one build — add every edge, freeze — inside a paused-GC
// window and returns the frozen product and the peak heap delta over the
// window.
// With the collector off the heap only grows, so sampling after the add
// loop and after the freeze (builder and CSR both still referenced)
// captures the high-water mark exactly, rehash churn and freeze transients
// included, with no dependence on collector scheduling.
func buildPeak[G any](adds [][2]int32, mk func() (addEdge func(u, v int32), freeze func() G)) (G, int64) {
	prev := debug.SetGCPercent(-1)
	runtime.GC()
	base := heapAlloc()
	addEdge, freeze := mk() // inside the window: builder allocations count
	for _, e := range adds {
		addEdge(e[0], e[1])
	}
	loaded := heapAlloc() - base
	g := freeze()
	frozen := heapAlloc() - base
	debug.SetGCPercent(prev)
	peak := loaded
	if frozen > peak {
		peak = frozen
	}
	return g, peak
}

// BenchmarkScaleBuild is the tentpole acceptance benchmark: a
// million-node-shape PLRG edge stream through the map-backed reference
// (mapbuilder_test.go) and graph.StreamBuilder, recording each path's
// paused-GC peak heap and build overhead (peak minus the shared CSR). The
// streamed path must hold a >= 4x overhead advantage (asserted by the
// TOPOCMP_SCALE_SMOKE=1 smoke test; recorded here for EXPERIMENTS.md).
func BenchmarkScaleBuild(b *testing.B) {
	adds, n := plrgEdgeStream(11, 1_000_000)
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ResetTimer()
			c, peak := buildPeak(adds, func() (func(u, v int32), func() mapCSR) {
				mb := newMapBuilder(n)
				return mb.AddEdge, mb.csr
			})
			b.StopTimer()
			recordBench(b, "BENCH_scale.json", scaleBenchRow{
				Name: b.Name(), Mode: "map", Nodes: n, EdgeAdds: len(adds),
				DistinctEdges: c.edges(), SecondsPerOp: b.Elapsed().Seconds() / float64(i+1),
				PeakHeapBytes: peak, CSRBytes: c.bytes(), BuildOverheadBytes: peak - c.bytes(),
			})
		}
	})
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ResetTimer()
			g, peak := buildPeak(adds, func() (func(u, v int32), func() *graph.Graph) {
				sb := graph.NewStreamBuilder(n)
				sb.Reserve(len(adds))
				return sb.AddEdge, sb.Graph
			})
			b.StopTimer()
			recordBench(b, "BENCH_scale.json", scaleBenchRow{
				Name: b.Name(), Mode: "streamed", Nodes: n, EdgeAdds: len(adds),
				DistinctEdges: g.NumEdges(), SecondsPerOp: b.Elapsed().Seconds() / float64(i+1),
				PeakHeapBytes: peak, CSRBytes: csrBytes(g), BuildOverheadBytes: peak - csrBytes(g),
			})
		}
	})
}

// BenchmarkScaleTrajectory records the size-vs-time/RSS trajectory of the
// streamed PLRG build at 10k, 100k and 1M nodes: the scale axis table of
// EXPERIMENTS.md.
func BenchmarkScaleTrajectory(b *testing.B) {
	for _, size := range []struct {
		label string
		n     int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1m", 1_000_000}} {
		b.Run(size.label, func(b *testing.B) {
			adds, n := plrgEdgeStream(11, size.n)
			for i := 0; i < b.N; i++ {
				b.ResetTimer()
				g, peak := buildPeak(adds, func() (func(u, v int32), func() *graph.Graph) {
					sb := graph.NewStreamBuilder(n)
					sb.Reserve(len(adds))
					return sb.AddEdge, sb.Graph
				})
				b.StopTimer()
				rss, _ := obs.ReadRSS()
				recordBench(b, "BENCH_scale.json", scaleBenchRow{
					Name: b.Name(), Mode: "streamed", Nodes: n, EdgeAdds: len(adds),
					DistinctEdges: g.NumEdges(), SecondsPerOp: b.Elapsed().Seconds() / float64(i+1),
					PeakHeapBytes: peak, CSRBytes: csrBytes(g), BuildOverheadBytes: peak - csrBytes(g),
					RSSBytes: rss,
				})
			}
		})
	}
}

// BenchmarkScaleFullRL runs the measurement pipeline at the full-rl preset
// — the scale whose traceroute sweep discovers the real SCAN/Mercator map's
// ~170k routers — and computes a sampled expansion with confidence bounds
// on the resulting RL graph.
func BenchmarkScaleFullRL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runtime.GC()
		base := heapAlloc()
		b.ResetTimer()
		ms := core.BuildMeasured(core.PaperSetOptions{Seed: 1, Scale: core.ScalePresets["full-rl"]})
		g := ms.RL.Graph
		exp := metrics.ExpansionWith(ball.NewEngine(g, 0), ball.Config{
			MaxSources: 256, Rand: rand.New(rand.NewSource(1)),
		})
		b.StopTimer()
		runtime.GC()
		peak := heapAlloc() - base
		rss, _ := obs.ReadRSS()
		meanSE := 0.0
		for _, se := range exp.StdErr {
			meanSE += se
		}
		if len(exp.StdErr) > 0 {
			meanSE /= float64(len(exp.StdErr))
		}
		recordBench(b, "BENCH_scale.json", scaleBenchRow{
			Name: b.Name(), Mode: "pipeline", Nodes: g.NumNodes(), EdgeAdds: g.NumEdges(),
			DistinctEdges: g.NumEdges(), SecondsPerOp: b.Elapsed().Seconds() / float64(i+1),
			PeakHeapBytes: peak, RSSBytes: rss, MeanStdErr: meanSE,
		})
	}
}
