package topocmp

import (
	"math/rand"
	"sync"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/hierarchy"
)

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
			pass := func() {
				hierarchy.LinkValues(g, hierarchy.Options{
					MaxSources:  numSources,
					Rand:        rand.New(rand.NewSource(7)),
					Parallelism: 1,
				})
			}
			// One untimed pass first grows the pooled entry streams to the
			// graph's size, so the row times a warm pass, as every suite
			// run after the first is.
			pass()
			benchOnGraph(b, "BENCH_linkvalue.json", g, n.Name, numSources, pass)
		})
	}
}
