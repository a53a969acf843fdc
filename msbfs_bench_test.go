package topocmp

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/graph"
)

// msbfsBenchRow is one line of BENCH_msbfs.json: the scalar-vs-batched
// distance-sweep record per graph family, the machine-readable form of the
// distance-kernel table in EXPERIMENTS.md. Rewritten after every benchmark
// so a partial -bench run still leaves a consistent file.
type msbfsBenchRow struct {
	Name         string  `json:"name"`
	Graph        string  `json:"graph"`
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	Sources      int     `json:"sources"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

var msbfsBench struct {
	sync.Mutex
	rows []msbfsBenchRow
}

// benchMSBFS runs fn b.N times with alloc accounting and records the row.
func benchMSBFS(b *testing.B, g *graph.Graph, gname string, sources int, fn func()) {
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
	row := msbfsBenchRow{
		Name:         b.Name(),
		Graph:        gname,
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Sources:      sources,
		SecondsPerOp: b.Elapsed().Seconds() / n,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	msbfsBench.Lock()
	defer msbfsBench.Unlock()
	replaced := false
	for i := range msbfsBench.rows {
		if msbfsBench.rows[i].Name == row.Name {
			msbfsBench.rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		msbfsBench.rows = append(msbfsBench.rows, row)
	}
	data, err := json.MarshalIndent(msbfsBench.rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_msbfs.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

var msbfsNetsOnce struct {
	sync.Once
	nets []*core.Network
}

// msbfsBenchNets builds the benchmark's graph families once: the measured
// RL and AS graphs (the acceptance workload) plus one generated and two
// canonical families.
func msbfsBenchNets() []*core.Network {
	msbfsNetsOnce.Do(func() {
		opts := core.PaperSetOptions{Seed: 1, Scale: 0.3}
		ms := core.BuildMeasured(opts)
		msbfsNetsOnce.nets = []*core.Network{
			ms.RL, ms.AS,
			core.BuildNetwork("PLRG", opts),
			core.BuildNetwork("Mesh", opts),
			core.BuildNetwork("Tree", opts),
		}
	})
	return msbfsNetsOnce.nets
}

// BenchmarkMSBFS compares one full 64-source distance sweep done the scalar
// way (64 reusable-scratch BFS passes, the pre-kernel hot path of the
// expansion/eccentricity/path-length metrics) against one bit-parallel
// MSBFS batch over the same sources in the level-counts mode those metrics
// read.
func BenchmarkMSBFS(b *testing.B) {
	for _, n := range msbfsBenchNets() {
		g := n.Graph
		r := rand.New(rand.NewSource(7))
		perm := r.Perm(g.NumNodes())
		sources := make([]int32, graph.MSBFSWidth)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		b.Run("scalar/"+n.Name, func(b *testing.B) {
			s := graph.NewBFSScratch()
			benchMSBFS(b, g, n.Name, len(sources), func() {
				for _, src := range sources {
					s.BFS(g, src)
				}
			})
		})
		b.Run("batched/"+n.Name, func(b *testing.B) {
			ms := graph.NewMSBFSScratch()
			benchMSBFS(b, g, n.Name, len(sources), func() {
				ms.RunLevels(g, sources)
			})
		})
	}
}
