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
// link values), AS, and PLRG — plus Mesh, whose lattice of equal-cost paths
// makes the widest ancestor DAGs of the paper set.
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

// BenchmarkLinkValues times one full link-value pass per graph family: one
// counting BFS per source, the DAG walks and the cover. Parallelism is
// pinned to 1, matching the reproduce -quick -j 1 acceptance run.
func BenchmarkLinkValues(b *testing.B) {
	const numSources = 384
	for _, n := range linkValueBenchNets() {
		g := n.Graph
		b.Run(n.Name, func(b *testing.B) {
			pass := func() {
				hierarchy.LinkValues(g, hierarchy.Options{
					MaxSources:  numSources,
					Rand:        rand.New(rand.NewSource(7)),
					Parallelism: 1,
				})
			}
			benchOnGraph(b, "BENCH_linkvalue.json", g, n.Name, numSources, pass)
		})
	}
}
