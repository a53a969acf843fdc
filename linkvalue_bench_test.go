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
	"topocmp/internal/hierarchy"
)

// linkValueBenchRow is one line of BENCH_linkvalue.json: the link-value
// sweep record per graph family, the machine-readable form of the
// link-value table in EXPERIMENTS.md. Rewritten after every benchmark so a
// partial -bench run still leaves a consistent file.
type linkValueBenchRow struct {
	Name         string  `json:"name"`
	Graph        string  `json:"graph"`
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	Sources      int     `json:"sources"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

var linkValueBench struct {
	sync.Mutex
	rows []linkValueBenchRow
}

// benchLinkValue runs fn b.N times with alloc accounting and records the row.
// One untimed call first grows the pooled entry streams to the graph's size,
// so a row times a warm pass, as every suite run after the first is.
func benchLinkValue(b *testing.B, g *graph.Graph, gname string, sources int, fn func()) {
	b.Helper()
	fn()
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
	row := linkValueBenchRow{
		Name:         b.Name(),
		Graph:        gname,
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Sources:      sources,
		SecondsPerOp: b.Elapsed().Seconds() / n,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	linkValueBench.Lock()
	defer linkValueBench.Unlock()
	replaced := false
	for i := range linkValueBench.rows {
		if linkValueBench.rows[i].Name == row.Name {
			linkValueBench.rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		linkValueBench.rows = append(linkValueBench.rows, row)
	}
	data, err := json.MarshalIndent(linkValueBench.rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_linkvalue.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

var linkValueNetsOnce struct {
	sync.Once
	nets []*core.Network
}

// linkValueBenchNets builds the benchmark's graph families once: the
// acceptance workload RL (reduced to its core, exactly as the suite computes
// link values), AS, and PLRG — plus Mesh, whose diameter sends the probe to
// the scalar provider, so its row times that provider.
func linkValueBenchNets() []*core.Network {
	linkValueNetsOnce.Do(func() {
		opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
		ms := core.BuildMeasured(opts)
		rl := ms.RL
		if rl.Overlay != nil {
			if c, _ := rl.Graph.Core(); c.NumNodes() >= 3 {
				rl = &core.Network{Name: rl.Name, Category: rl.Category, Graph: c}
			}
		}
		linkValueNetsOnce.nets = []*core.Network{
			rl, ms.AS,
			core.BuildNetwork("PLRG", opts),
			core.BuildNetwork("Mesh", opts),
		}
	})
	return linkValueNetsOnce.nets
}

// BenchmarkLinkValues times one full link-value pass per graph family on
// the production route: the diameter probe picks the sigma-carrying MSBFS
// provider (one CSR sweep per 64–256-source strip) or, on Mesh, the scalar
// provider (one counting BFS per source). Parallelism is pinned to 1,
// matching the reproduce -quick -j 1 acceptance run.
func BenchmarkLinkValues(b *testing.B) {
	const numSources = 384
	for _, n := range linkValueBenchNets() {
		g := n.Graph
		b.Run("sigma/"+n.Name, func(b *testing.B) {
			benchLinkValue(b, g, n.Name, numSources, func() {
				hierarchy.LinkValues(g, hierarchy.Options{
					MaxSources:  numSources,
					Rand:        rand.New(rand.NewSource(7)),
					Parallelism: 1,
				})
			})
		})
	}
}
